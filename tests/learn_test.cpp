// Tests for the graybox learned-predictor bank (src/learn/): RLS
// convergence and drift tracking, streaming residual quantiles, feature
// extraction, the PredictorBank's warm-up/prediction contract, the
// Arbiter's hysteresis flip and blend math, end-to-end learning through
// the PredictionService (flip under unmodeled drift, determinism,
// sharding), and the concurrency suites the TSan CI job targets
// (concurrent ledger record/snapshot with per-candidate children,
// concurrent submit/report against a learning service).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/ledger.hpp"
#include "cluster/platform.hpp"
#include "learn/arbiter.hpp"
#include "learn/bank.hpp"
#include "learn/feature.hpp"
#include "learn/quantile.hpp"
#include "learn/rls.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::learn {
namespace {

// --- RlsPredictor ------------------------------------------------------

TEST(LearnRls, RecoversLinearCoefficients) {
  RlsPredictor rls(3);
  support::Rng rng(7);
  const double theta[3] = {2.0, -1.5, 0.75};
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {1.0, rng.uniform(0.5, 3.0),
                                   rng.uniform(-1.0, 1.0)};
    const double y = theta[0] * x[0] + theta[1] * x[1] + theta[2] * x[2];
    rls.update(x, y);
  }
  const auto coef = rls.coefficients();
  ASSERT_EQ(coef.size(), 3u);
  EXPECT_NEAR(coef[0], theta[0], 1e-6);
  EXPECT_NEAR(coef[1], theta[1], 1e-6);
  EXPECT_NEAR(coef[2], theta[2], 1e-6);
  const std::vector<double> probe = {1.0, 2.0, 0.5};
  EXPECT_NEAR(rls.predict(probe), 2.0 - 3.0 + 0.375, 1e-6);
  EXPECT_EQ(rls.count(), 200u);
}

TEST(LearnRls, ForgettingTracksCoefficientDrift) {
  RlsOptions options;
  options.forgetting = 0.9;
  RlsPredictor rls(2, options);
  support::Rng rng(11);
  // Regime 1: y = 1 + 2 x. Regime 2: y = 1 + 5 x.
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.5, 2.0);
    rls.update(std::vector<double>{1.0, x}, 1.0 + 2.0 * x);
  }
  EXPECT_NEAR(rls.coefficients()[1], 2.0, 1e-6);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.5, 2.0);
    rls.update(std::vector<double>{1.0, x}, 1.0 + 5.0 * x);
  }
  EXPECT_NEAR(rls.coefficients()[1], 5.0, 1e-4);
}

TEST(LearnRls, InnovationVarianceReflectsResidualNoise) {
  RlsPredictor rls(1);
  support::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    rls.update(std::vector<double>{1.0}, 10.0 + rng.normal(0.0, 0.5));
  }
  // The one-step-ahead squared error settles near the noise variance.
  EXPECT_GT(rls.innovation_variance(), 0.05);
  EXPECT_LT(rls.innovation_variance(), 1.0);
}

TEST(LearnRls, RejectsDimensionMismatch) {
  RlsPredictor rls(2);
  EXPECT_THROW(rls.update(std::vector<double>{1.0}, 1.0), support::Error);
  EXPECT_THROW((void)rls.predict(std::vector<double>{1.0, 2.0, 3.0}),
               support::Error);
}

// --- StreamingQuantiles ------------------------------------------------

TEST(LearnQuantiles, TracksNormalQuantiles) {
  StreamingQuantiles q;
  support::Rng rng(13);
  for (int i = 0; i < 20000; ++i) q.add(rng.normal(10.0, 2.0));
  const auto v = q.quantiles();
  ASSERT_EQ(v.size(), 3u);
  // N(10, 2): q05 ~ 6.71, q50 ~ 10, q95 ~ 13.29. SGD quantile tracking
  // is noisy, so the tolerances are loose — ordering and rough location
  // are the contract.
  EXPECT_NEAR(v[0], 6.71, 1.5);
  EXPECT_NEAR(v[1], 10.0, 1.0);
  EXPECT_NEAR(v[2], 13.29, 1.5);
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[1], v[2]);
}

TEST(LearnQuantiles, ConstantStreamStaysAtTheConstant) {
  StreamingQuantiles q;
  for (int i = 0; i < 1000; ++i) q.add(42.0);
  // The adaptive step scale collapses on a constant stream, so every
  // marker stays pinned (within the geometrically-shrinking step sum).
  for (const double v : q.quantiles()) EXPECT_NEAR(v, 42.0, 0.5);
  EXPECT_EQ(q.count(), 1000u);
}

TEST(LearnQuantiles, QuantilesReturnedMonotone) {
  StreamingQuantiles q;
  support::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    q.add(rng.uniform(-1.0, 1.0));
    const auto v = q.quantiles();
    EXPECT_LE(v[0], v[1]);
    EXPECT_LE(v[1], v[2]);
  }
}

// --- Feature extraction ------------------------------------------------

TEST(LearnFeature, ReciprocalAvailabilityLayout) {
  const std::vector<stoch::StochasticValue> loads = {
      stoch::StochasticValue(0.5, 0.1), stoch::StochasticValue(0.25, 0.05)};
  const stoch::StochasticValue bw(0.8, 0.1);
  std::vector<double> x;
  extract_features(loads, bw, /*uses_bandwidth=*/true, x);
  ASSERT_EQ(x.size(), feature_dim(2));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);   // 1 / 0.5
  EXPECT_DOUBLE_EQ(x[2], 4.0);   // 1 / 0.25
  EXPECT_DOUBLE_EQ(x[3], 1.25);  // 1 / 0.8

  // No bandwidth parameter: the slot is reserved but zeroed, so the
  // dimension depends on structure only.
  extract_features(loads, bw, /*uses_bandwidth=*/false, x);
  ASSERT_EQ(x.size(), feature_dim(2));
  EXPECT_DOUBLE_EQ(x[3], 0.0);
}

TEST(LearnFeature, ZeroAvailabilityIsFloored) {
  const std::vector<stoch::StochasticValue> loads = {
      stoch::StochasticValue(0.0, 0.0)};
  std::vector<double> x;
  extract_features(loads, stoch::StochasticValue(0.0, 0.0), true, x);
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(x[1], 1.0 / kAvailabilityFloor);
}

// --- PredictorBank -----------------------------------------------------

TEST(LearnBank, WarmsUpBeforePredicting) {
  PredictorBank bank;
  const std::vector<double> x = {1.0, 2.0, 0.0};
  EXPECT_FALSE(bank.predict("k", x).has_value());
  for (std::size_t i = 0; i + 1 < kBankWarmup; ++i) {
    bank.observe("k", x, 10.0);
  }
  EXPECT_FALSE(bank.predict("k", x).has_value());
  bank.observe("k", x, 10.0);
  const auto p = bank.predict("k", x);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->observations, kBankWarmup);
  EXPECT_FALSE(bank.predict("other", x).has_value());
}

TEST(LearnBank, LearnsLinearRuntimeWithHonestWidth) {
  PredictorBank bank;
  support::Rng rng(5);
  // ExTime = 2 + 3 / load — the graybox form the features encode.
  for (int i = 0; i < 300; ++i) {
    const double load = rng.uniform(0.3, 1.0);
    const std::vector<double> x = {1.0, 1.0 / load, 0.0};
    bank.observe("k", x, 2.0 + 3.0 / load + rng.normal(0.0, 0.05));
  }
  const std::vector<double> probe = {1.0, 2.0, 0.0};  // load 0.5
  const auto p = bank.predict("k", probe);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->value.mean(), 8.0, 0.3);
  EXPECT_GT(p->value.halfwidth(), 0.0);
  EXPECT_LE(p->q05, p->q50);
  EXPECT_LE(p->q50, p->q95);
}

TEST(LearnBank, PredictionsNeverDegenerateToPoints) {
  PredictorBank bank;
  const std::vector<double> x = {1.0, 1.0};
  // Perfectly noiseless stream: residual quantiles collapse, but the
  // half-width floor keeps the prediction a genuine interval (the
  // recalibrator and the ledger's residual machinery need sd > 0).
  for (int i = 0; i < 50; ++i) bank.observe("k", x, 5.0);
  const auto p = bank.predict("k", x);
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->value.is_point());
  EXPECT_GE(p->value.halfwidth(), 1e-9);
}

TEST(LearnBank, SnapshotSummarizesEveryKey) {
  PredictorBank bank;
  const std::vector<double> x = {1.0, 2.0};
  bank.observe("a", x, 1.0);
  bank.observe("a", x, 1.1);
  bank.observe("b", x, 2.0);
  const auto rows = bank.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].structure_key, "a");
  EXPECT_EQ(rows[0].observations, 2u);
  EXPECT_EQ(rows[0].coefficients.size(), 2u);
  EXPECT_EQ(rows[1].structure_key, "b");
  EXPECT_EQ(bank.observations("a"), 2u);
  EXPECT_EQ(bank.observations("nope"), 0u);
}

// --- Arbiter -----------------------------------------------------------

TEST(LearnArbiter, BlendIsMomentMatchedMixture) {
  const stoch::StochasticValue s(10.0, 2.0);  // sd 1
  const stoch::StochasticValue l(14.0, 4.0);  // sd 2
  const auto b = blend(s, l, 0.25);
  EXPECT_NEAR(b.mean(), 0.25 * 14.0 + 0.75 * 10.0, 1e-12);
  // Mixture variance: sum w_i (var_i + mean_i^2) - mean^2 — wider than
  // either component when the means disagree.
  const double var = 0.25 * (4.0 + 196.0) + 0.75 * (1.0 + 100.0) - 11.0 * 11.0;
  EXPECT_NEAR(b.sd(), std::sqrt(var), 1e-12);
  // Degenerate weights recover the endpoints.
  EXPECT_NEAR(blend(s, l, 0.0).mean(), s.mean(), 1e-12);
  EXPECT_NEAR(blend(s, l, 1.0).mean(), l.mean(), 1e-12);
}

TEST(LearnArbiter, FlipsToLearnedWithHysteresis) {
  Arbiter arbiter;
  // Structural is badly off (stale regime); learned nails it.
  const stoch::StochasticValue structural(10.0, 1.0);
  const stoch::StochasticValue learned(15.0, 1.0);
  std::size_t flip_at = 0;
  for (std::size_t i = 0; i < kArbiterWarmup + kHysteresis + 8; ++i) {
    if (arbiter.record("m", structural, &learned, 15.0)) {
      flip_at = i + 1;
      break;
    }
  }
  // Eligibility needs min_observations in the learned window, then the
  // challenger must win `hysteresis` consecutive observations.
  ASSERT_GT(flip_at, 0u) << "arbiter never flipped";
  EXPECT_GE(flip_at, kHysteresis);
  EXPECT_LE(flip_at, kArbiterWarmup + kHysteresis);
  EXPECT_EQ(arbiter.source("m"), Source::kLearned);
  EXPECT_EQ(arbiter.flips_total(), 1u);

  const auto table = arbiter.table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].model_id, "m");
  EXPECT_EQ(table[0].serving, Source::kLearned);
  EXPECT_EQ(table[0].flips, 1u);
  EXPECT_LT(table[0].learned.rolling_crps, table[0].structural.rolling_crps);
}

TEST(LearnArbiter, HysteresisBlocksLuckyStreaks) {
  Arbiter arbiter;
  const stoch::StochasticValue structural(10.0, 1.0);
  const stoch::StochasticValue learned(15.0, 1.0);
  // The candidates agree until the learned one may challenge.
  for (std::size_t i = 0; i < kArbiterWarmup; ++i) {
    (void)arbiter.record("m", structural, &structural, 10.0);
  }
  // Learned wins one observation short of the hysteresis run...
  for (std::size_t i = 0; i + 1 < kHysteresis; ++i) {
    EXPECT_FALSE(arbiter.record("m", structural, &learned, 15.0));
  }
  EXPECT_EQ(arbiter.table()[0].streak, kHysteresis - 1);
  // ...then misses badly enough to lose its rolling lead: the streak
  // resets, and no flip may have happened.
  const stoch::StochasticValue wild(1000.0, 1.0);
  (void)arbiter.record("m", structural, &wild, 10.0);
  EXPECT_EQ(arbiter.table()[0].streak, 0u);
  for (std::size_t i = 0; i < kHysteresis; ++i) {
    (void)arbiter.record("m", structural, &structural, 10.0);
  }
  EXPECT_EQ(arbiter.source("m"), Source::kStructural);
  EXPECT_EQ(arbiter.flips_total(), 0u);
}

TEST(LearnArbiter, NullLearnedPinsServingToStructural) {
  Arbiter arbiter;
  const stoch::StochasticValue structural(10.0, 1.0);
  const stoch::StochasticValue learned(15.0, 1.0);
  for (std::size_t i = 0; i < kArbiterWarmup + kHysteresis; ++i) {
    (void)arbiter.record("m", structural, &learned, 15.0);
  }
  ASSERT_EQ(arbiter.source("m"), Source::kLearned);
  // Bank went blank (node restart): serving must pin back to structural
  // immediately — a flip decided on stale evidence cannot outlive the
  // learned side's state.
  (void)arbiter.record("m", structural, nullptr, 15.0);
  EXPECT_EQ(arbiter.source("m"), Source::kStructural);
}

TEST(LearnArbiter, BlendWeightFollowsRollingSkill) {
  Arbiter arbiter;
  const stoch::StochasticValue structural(10.0, 1.0);
  const stoch::StochasticValue learned(15.0, 1.0);
  EXPECT_DOUBLE_EQ(arbiter.blend_weight("m"), 0.5);
  for (std::size_t i = 0; i < kArbiterWarmup + 8; ++i) {
    (void)arbiter.record("m", structural, &learned, 15.0);
  }
  // Learned is far more skilled, so its share grows past the prior and
  // stays inside the clamp.
  EXPECT_GT(arbiter.blend_weight("m"), 0.5);
  EXPECT_LE(arbiter.blend_weight("m"), kMaxBlendWeight);
}

TEST(LearnArbiter, DeterministicForFixedObservationTrace) {
  const auto run = [] {
    Arbiter arbiter;
    support::Rng rng(23);
    for (int i = 0; i < 200; ++i) {
      const stoch::StochasticValue structural(10.0, 1.0);
      const stoch::StochasticValue learned(12.0 + rng.uniform(-0.1, 0.1),
                                           1.0);
      (void)arbiter.record("m", structural, &learned,
                           12.0 + rng.uniform(-0.5, 0.5));
    }
    return arbiter.table();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].serving, b[0].serving);
  EXPECT_EQ(a[0].flips, b[0].flips);
  EXPECT_EQ(a[0].observations, b[0].observations);
  EXPECT_DOUBLE_EQ(a[0].blend_weight, b[0].blend_weight);
  EXPECT_DOUBLE_EQ(a[0].learned.rolling_crps, b[0].learned.rolling_crps);
}

// --- End-to-end through the PredictionService --------------------------

serve::ModelSpec sor_spec(std::size_t n = 125, std::size_t hosts = 2) {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

serve::PredictRequest sor_request(const std::string& id) {
  serve::PredictRequest request;
  request.model_id = id;
  request.loads = {stoch::StochasticValue(0.6, 0.1),
                   stoch::StochasticValue(0.65, 0.1)};
  return request;
}

struct DriftRun {
  std::size_t flip_trial = 0;  ///< 0: never flipped
  std::vector<double> means;
  std::vector<std::uint8_t> sources;
};

// Sequential closed loop against a learning service. The observed
// runtime is a fixed multiple of the STRUCTURAL prediction (captured on
// the first trial), i.e. an unmodeled slowdown the structural model
// never sees — exactly the drift the learned candidate exists to absorb.
DriftRun run_drift_loop(serve::PredictionService& service,
                        const std::string& id, std::size_t trials,
                        double drift = 1.5) {
  DriftRun out;
  double base = 0.0;
  for (std::size_t i = 0; i < trials; ++i) {
    auto result = service.submit(sor_request(id)).get();
    EXPECT_TRUE(result.ok()) << result.error;
    if (i == 0) base = result.point;
    out.means.push_back(result.value.mean());
    out.sources.push_back(result.source);
    service.report_observation(result.request_id, base * drift);
    if (out.flip_trial == 0 &&
        service.arbiter()->source(id) != Source::kStructural) {
      out.flip_trial = i + 1;
    }
  }
  return out;
}

TEST(LearnServe, FlipsToLearnedUnderUnmodeledDrift) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.enable_learning = true;
  serve::PredictionService service(options);
  service.register_model("sor", sor_spec());

  const std::size_t bound = kBankWarmup + kArbiterWarmup + kHysteresis + 8;
  const DriftRun run = run_drift_loop(service, "sor", bound + 40);

  // The flip happens, and within the analytic bound: bank warm-up +
  // challenger eligibility + hysteresis (+ slack for the streak start).
  ASSERT_GT(run.flip_trial, 0u) << "serving source never left structural";
  EXPECT_LE(run.flip_trial, bound);

  // Post-flip requests are actually served from the learned side.
  EXPECT_NE(run.sources.back(), 0);
  auto& metrics = service.learn_metrics();
  EXPECT_GT(metrics.counter("predictions_served_learned").value() +
                metrics.counter("predictions_served_blended").value(),
            0u);
  EXPECT_GE(metrics.counter("arbiter_flips").value(), 1u);
  EXPECT_EQ(metrics.counter("observations_trained").value(),
            run.means.size());

  // And the served mean converged toward the drifted truth.
  const auto table = service.arbiter()->table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_LT(table[0].learned.rolling_crps, table[0].structural.rolling_crps);
}

TEST(LearnServe, DeterministicForFixedObservationTrace) {
  const auto run = [] {
    serve::ServiceOptions options;
    options.workers = 1;
    options.enable_learning = true;
    serve::PredictionService service(options);
    service.register_model("sor", sor_spec());
    return run_drift_loop(service, "sor", 96);
  };
  const DriftRun a = run();
  const DriftRun b = run();
  EXPECT_EQ(a.flip_trial, b.flip_trial);
  ASSERT_EQ(a.means.size(), b.means.size());
  for (std::size_t i = 0; i < a.means.size(); ++i) {
    EXPECT_EQ(a.means[i], b.means[i]) << "trial " << i;
    EXPECT_EQ(a.sources[i], b.sources[i]) << "trial " << i;
  }
}

TEST(LearnServe, ShardedServiceArbitratesPerModelServiceWide) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.shards = 4;
  options.enable_learning = true;
  serve::PredictionService service(options);
  // Two structures: their streams land on (potentially) different
  // shards, but bank and arbiter are shared service-wide.
  service.register_model("sorA", sor_spec(125));
  service.register_model("sorB", sor_spec(250));

  const DriftRun a = run_drift_loop(service, "sorA", 96);
  const DriftRun b = run_drift_loop(service, "sorB", 96);
  EXPECT_GT(a.flip_trial, 0u);
  EXPECT_GT(b.flip_trial, 0u);
  EXPECT_EQ(service.arbiter()->table().size(), 2u);
  EXPECT_EQ(service.bank()->snapshot().size(), 2u);
}

// An execution time is positive (paper §2.3): once the arbiter serves
// the learned candidate, a feature point where the bank extrapolates to
// a mean <= 0 is answered from the structural model instead, and the
// refusal is counted.
TEST(LearnServe, NonPositiveLearnedMeanFallsBackToStructural) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.enable_learning = true;
  serve::PredictionService service(options);
  serve::PredictionService structural_only;
  service.register_model("sor", sor_spec());
  structural_only.register_model("sor", sor_spec());
  const auto request_at = [](double load) {
    serve::PredictRequest request = sor_request("sor");
    request.loads[0] = stoch::StochasticValue(load, 0.05);
    return request;
  };

  // Runtimes fall linearly in 1/load of the first host, y = 10 - 4/load:
  // the bank learns it exactly on loads in [0.5, 1], far better than the
  // structural model, and extrapolates to -10 s at load 0.2.
  support::Rng rng(31);
  for (std::size_t i = 0; i < kBankWarmup + kArbiterWarmup + kHysteresis + 16;
       ++i) {
    const double load = rng.uniform(0.5, 1.0);
    const auto result = service.submit(request_at(load)).get();
    ASSERT_TRUE(result.ok()) << result.error;
    service.report_observation(result.request_id, 10.0 - 4.0 / load);
  }
  ASSERT_EQ(service.arbiter()->source("sor"), Source::kLearned);
  auto& refused = service.learn_metrics().counter("learned_refused");
  EXPECT_EQ(refused.value(), 0u);

  const auto result = service.submit(request_at(0.2)).get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.source, static_cast<std::uint8_t>(Source::kStructural));
  const auto expected = structural_only.submit(request_at(0.2)).get();
  ASSERT_TRUE(expected.ok()) << expected.error;
  EXPECT_EQ(result.value, expected.value);
  EXPECT_GT(result.point, 0.0);
  EXPECT_EQ(refused.value(), 1u);
}

TEST(LearnServe, DisabledLearningLeavesServiceUntouched) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::PredictionService service(options);
  service.register_model("sor", sor_spec());
  EXPECT_EQ(service.bank(), nullptr);
  EXPECT_EQ(service.arbiter(), nullptr);
  auto result = service.submit(sor_request("sor")).get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.source, 0);
}

// --- Concurrency (TSan targets) ----------------------------------------

TEST(LearnLedgerConcurrency, ConcurrentRecordAndSnapshotOfCandidates) {
  calib::AccuracyLedger ledger;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  const std::vector<std::string> candidates = {"m#structural", "m#learned",
                                               "m#blended"};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& id : candidates) {
        if (ledger.has(id)) {
          const auto s = ledger.snapshot(id);
          // Windowed stats stay internally consistent mid-stream.
          EXPECT_LE(s.rolling_count, ledger.options().coverage_window);
          EXPECT_LE(s.inside, s.count);
          EXPECT_GE(s.rolling_crps, 0.0);
        }
      }
      (void)ledger.snapshot();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      support::Rng rng(100 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) {
        const auto& id = candidates[static_cast<std::size_t>(i) %
                                    candidates.size()];
        ledger.record(id, stoch::StochasticValue(10.0, 2.0),
                      rng.normal(10.0, 1.0));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  std::uint64_t total = 0;
  for (const auto& id : candidates) total += ledger.snapshot(id).count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(ledger.snapshot().count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(LearnServeConcurrency, ConcurrentClientsTrainOneBank) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 120;

  serve::ServiceOptions options;
  options.workers = 2;
  options.shards = 2;
  options.enable_learning = true;
  serve::PredictionService service(options);
  service.register_model("sor", sor_spec());

  std::atomic<bool> stop{false};
  std::thread inspector([&] {
    while (!stop.load()) {
      (void)service.arbiter()->table();
      (void)service.bank()->snapshot();
      (void)service.metrics().render();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto result = service.submit(sor_request("sor")).get();
        ASSERT_TRUE(result.ok()) << result.error;
        service.report_observation(result.request_id, result.point * 1.4);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  inspector.join();
  service.drain();

  EXPECT_EQ(service.learn_metrics().counter("observations_trained").value(),
            static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(service.bank()->observations(sor_spec().structure_key()),
            static_cast<std::uint64_t>(kClients) * kPerClient);
}

// --- Golden: the learned path at its defaults ---------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A seeded 600-observation stream, with an unmodeled 1.5x slowdown from
// observation 300, through a default PredictorBank and Arbiter in the
// order a serving shard drives them: the bank predicts when the request
// is served; the arbiter scores and the bank trains when the runtime
// arrives. The pins were taken while the bank's and the arbiter's
// constants were still settable options: the learned mean and half-width
// at every 50th observation, the serving source after every record, the
// flips and the final blend weight.
TEST(LearnGolden, DefaultBankAndArbiterReplayKeepTheirBits) {
  constexpr std::size_t kObservations = 600;
  constexpr std::size_t kDriftAt = 300;
  const std::vector<std::pair<double, double>> kLearned = {
      {0x1.285782d39a0acp+3, 0x1.72df9258e1cbap-1},
      {0x1.15e214266373ap+3, 0x1.ae5f1152d761p-1},
      {0x1.e16464b36d1a4p+2, 0x1.a99b481150165p-1},
      {0x1.20a589d91bc93p+3, 0x1.8f88bc55b2b1bp-1},
      {0x1.478a04701e05fp+3, 0x1.6fdf25d1aece1p-1},
      {0x1.70b5edff5f7b5p+3, 0x1.6d148bbace3dbp-1},
      {0x1.5bac9e977727ep+3, 0x1.409c178d043d8p+1},
      {0x1.d324c819eba21p+3, 0x1.2d80cceb3fca5p+1},
      {0x1.9cd075e8744bep+3, 0x1.6f085324620dcp+1},
      {0x1.7a4ebe9bcc3d4p+3, 0x1.9104d5c1c3695p+1},
      {0x1.caeda6e466758p+3, 0x1.9b5de5b83b9bap+1},
      {0x1.55e9b48fdda54p+3, 0x1.9a556849218a2p+1},
  };
  // '0' structural, '1' learned, '2' blended; 50 observations a line.
  const std::string kSources =
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000"
      "00000000000000000000000001111111111111111111111111"
      "11111111111111111111111111111111111111111111111111"
      "11111111111111111111111111111111111111111111111111"
      "11111111111111111111111111111111111111111111111111"
      "11111111111111111111111111111111111111111111111111"
      "11111111111111111111111111111111111111111111111111";
  const std::vector<std::size_t> kFlips = {325};
  constexpr double kBlendWeight = 0x1.d46f4d037845fp-1;

  PredictorBank bank;
  Arbiter arbiter;
  support::Rng rng(29);
  std::vector<std::pair<double, double>> learned_at;
  std::string sources;
  std::vector<std::size_t> flips;
  for (std::size_t i = 0; i < kObservations; ++i) {
    const double a = rng.uniform(0.4, 1.0);
    const double b = rng.uniform(0.4, 1.0);
    const std::vector<double> x = {1.0, 1.0 / a, 1.0 / b};
    const double modeled = 2.0 + 3.0 * x[1] + 1.5 * x[2];
    const stoch::StochasticValue structural(modeled, 0.1 * modeled);
    const double observed = modeled * (i < kDriftAt ? 1.0 : 1.5) *
                            (1.0 + rng.normal(0.0, 0.02));

    const std::optional<LearnedPrediction> learned = bank.predict("k", x);
    if ((i + 1) % 50 == 0) {
      ASSERT_TRUE(learned.has_value()) << "observation " << i;
      learned_at.emplace_back(learned->value.mean(),
                              learned->value.halfwidth());
    }
    if (arbiter.record("m", structural,
                       learned ? &learned->value : nullptr, observed)) {
      flips.push_back(i);
    }
    sources.push_back(
        static_cast<char>('0' + static_cast<int>(arbiter.source("m"))));
    bank.observe("k", x, observed);
  }
  ASSERT_EQ(learned_at.size(), kLearned.size());
  for (std::size_t k = 0; k < kLearned.size(); ++k) {
    EXPECT_EQ(bits(learned_at[k].first), bits(kLearned[k].first))
        << "mean at observation " << 50 * (k + 1);
    EXPECT_EQ(bits(learned_at[k].second), bits(kLearned[k].second))
        << "half-width at observation " << 50 * (k + 1);
  }
  EXPECT_EQ(sources, kSources);
  EXPECT_EQ(flips, kFlips);
  EXPECT_EQ(bits(arbiter.blend_weight("m")), bits(kBlendWeight));
}

}  // namespace
}  // namespace sspred::learn
