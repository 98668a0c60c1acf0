// Tests for the concurrent prediction service (src/serve/): metrics,
// bindings epochs, the compiled-program cache (including the concurrent
// first-compilation race), coalescing, admission control, served
// Monte-Carlo bits against Program::sample_trials, structured worker-side
// errors, the caller-runs serve() path against submit(), and the
// nws::Service multi-reader contract.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "calib/ledger.hpp"
#include "cluster/platform.hpp"
#include "nws/service.hpp"
#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/service.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::serve {
namespace {

ModelSpec small_spec(std::size_t n = 200, std::size_t hosts = 2) {
  ModelSpec spec;
  spec.app = ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

std::vector<stoch::StochasticValue> loads_for(std::size_t hosts) {
  std::vector<stoch::StochasticValue> loads;
  for (std::size_t i = 0; i < hosts; ++i) {
    loads.push_back(stoch::StochasticValue(0.8 + 0.05 * double(i), 0.1));
  }
  return loads;
}

PredictRequest stochastic_request(const std::string& id,
                                  std::vector<stoch::StochasticValue> loads) {
  PredictRequest request;
  request.model_id = id;
  request.loads = std::move(loads);
  return request;
}

PredictRequest resource_request(const std::string& id,
                                std::vector<std::string> resources) {
  PredictRequest request;
  request.model_id = id;
  request.resources = std::move(resources);
  return request;
}

ServiceOptions options_with(std::size_t workers) {
  ServiceOptions options;
  options.workers = workers;
  return options;
}

TEST(ServeClock, FakeClockIsDeterministic) {
  support::FakeClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
  clock.set(20.0);
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
  clock.set(5.0);  // never moves backwards
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
  clock.advance(-1.0);  // ignored
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
}

TEST(ServeClock, RealClockIsMonotonic) {
  support::RealClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(b, a);
}

TEST(ServeMetrics, CountersAndGauges) {
  MetricsRegistry registry;
  registry.counter("reqs").increment();
  registry.counter("reqs").increment(4);
  EXPECT_EQ(registry.counter("reqs").value(), 5u);
  registry.gauge("depth").set(7);
  registry.gauge("depth").sub(3);
  EXPECT_EQ(registry.gauge("depth").value(), 4);
  // Addresses are stable: hot paths may cache references.
  Counter& c = registry.counter("reqs");
  EXPECT_EQ(&c, &registry.counter("reqs"));
}

TEST(ServeMetrics, LatencyQuantilesFromBuckets) {
  LatencyHistogram h(1.0, 1000);  // 1 ms buckets
  for (int i = 1; i <= 100; ++i) h.observe(double(i) / 1000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
  EXPECT_NEAR(h.quantile(0.50), 0.050, 0.002);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.002);
  EXPECT_NEAR(h.quantile(0.99), 0.099, 0.002);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-9);
  // Values beyond the range clamp into the top bucket, saturating p100.
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(ServeMetrics, RegistrySnapshotNamesEverything) {
  MetricsRegistry registry;
  registry.counter("a").increment();
  registry.gauge("b").set(2);
  registry.histogram("c", 1.0, 8).observe(0.5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[0].kind, "counter");
  EXPECT_EQ(snap[2].kind, "histogram");
  EXPECT_FALSE(registry.render().empty());
}

TEST(ServeMetrics, EmptyHistogramIsAllZeros) {
  LatencyHistogram h(1.0, 16);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // Quantiles of an empty histogram are 0, never NaN.
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_FALSE(std::isnan(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  EXPECT_THROW((void)h.quantile(1.5), support::Error);
  EXPECT_THROW((void)h.quantile(-0.1), support::Error);
}

TEST(ServeMetrics, SingleSampleHistogramClampsAllQuantilesToIt) {
  LatencyHistogram h(1.0, 16);
  h.observe(0.3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.3);
  // Every quantile of a one-sample distribution is that sample: bucket
  // interpolation must clamp to the observed extremes, not bucket edges.
  for (const double q : {0.0, 0.01, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.3) << "q=" << q;
  }
}

TEST(ServeMetrics, OverflowObservationsSaturateTheTopBucket) {
  LatencyHistogram h(1.0, 16);  // tracked range [0, 1)
  h.observe(0.5);
  h.observe(50.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Out-of-range values clamp into the top bucket; high quantiles
  // saturate at the exact observed max rather than the bucket edge.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.9), 100.0);
  EXPECT_GE(h.quantile(0.9), 0.5);
  EXPECT_FALSE(std::isnan(h.quantile(0.99)));
}

TEST(ServeMetrics, RenderJsonListsEveryInstrumentWithoutNans) {
  MetricsRegistry registry;
  registry.counter("reqs").increment(3);
  registry.gauge("depth").set(-2);
  (void)registry.histogram("lat", 1.0, 8);  // deliberately left empty
  registry.histogram("sizes", 16.0, 16).observe(4.0);
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"name\": \"reqs\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"value\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // An empty histogram must render as zeros, not NaN (invalid JSON).
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ServeProgramCache, StructurallyIdenticalSpecsShareOneProgram) {
  ProgramCache cache;
  const auto a = cache.get_or_compile(small_spec());
  EXPECT_FALSE(a.hit);
  const auto b = cache.get_or_compile(small_spec());
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(a.model.get(), b.model.get());
  EXPECT_EQ(cache.compile_count(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeProgramCache, DifferentStructureMisses) {
  ProgramCache cache;
  (void)cache.get_or_compile(small_spec(200));
  const auto other = cache.get_or_compile(small_spec(400));
  EXPECT_FALSE(other.hit);
  EXPECT_EQ(cache.compile_count(), 2u);

  ModelSpec jacobi = small_spec(200);
  jacobi.app = ModelSpec::App::kJacobi;
  (void)cache.get_or_compile(jacobi);
  EXPECT_EQ(cache.compile_count(), 3u);
}

TEST(ServeProgramCache, ConcurrentFirstCompilationIsSingleFlight) {
  ProgramCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CompiledModelPtr> models(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &models, t] {
      models[size_t(t)] = cache.get_or_compile(small_spec(300)).model;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.compile_count(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[size_t(t)].get(), models[0].get());
  }
}

TEST(ServeEpoch, BridgePublishesVersionedConsistentSnapshots) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.8);
    nws_service.observe("cpu/b", 0.5);
  }
  NwsBridge bridge(nws_service, {"cpu/a", "cpu/b", "cpu/cold"});
  EXPECT_EQ(bridge.current(), nullptr);

  const auto first = bridge.publish();
  EXPECT_EQ(first->version(), 1u);
  EXPECT_TRUE(first->contains("cpu/a"));
  EXPECT_NEAR(first->lookup("cpu/a").mean(), 0.8, 1e-6);
  // No history yet: absent from the epoch, and lookup errors name it.
  EXPECT_FALSE(first->contains("cpu/cold"));
  EXPECT_THROW((void)first->lookup("cpu/cold"), support::Error);

  const auto second = bridge.publish();
  EXPECT_EQ(second->version(), 2u);
  EXPECT_EQ(bridge.current().get(), second.get());
  // The first epoch is immutable and still readable by in-flight work.
  EXPECT_NEAR(first->lookup("cpu/b").mean(), 0.5, 1e-6);
}

TEST(ServeEpoch, RejectedNonFiniteMeasurementKeepsTheResourcePublished) {
  // One NaN or inf in a history would make every postcast MSE non-finite,
  // so forecast() could not build a stochastic value and the bridge would
  // drop the resource until the bad value slid out of the history.
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws::Service nws_service(nws_options);
  support::Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    nws_service.observe("cpu/a", rng.normal(0.5, 0.05));
  }
  const std::vector<double> before = nws_service.history("cpu/a");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      nws_service.observe("cpu/a", bad);
      ADD_FAILURE() << "observe accepted " << bad;
    } catch (const support::Error& e) {
      EXPECT_NE(std::string(e.what()).find("cpu/a"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(nws_service.history("cpu/a"), before);
  // A rejected first measurement does not create the resource either.
  EXPECT_THROW(nws_service.observe("cpu/new",
                                   std::numeric_limits<double>::quiet_NaN()),
               support::Error);
  EXPECT_EQ(nws_service.history_size("cpu/new"), 0u);

  EXPECT_TRUE(std::isfinite(nws_service.forecast("cpu/a").error_sd));
  NwsBridge bridge(nws_service, {"cpu/a"});
  EXPECT_TRUE(bridge.publish()->contains("cpu/a"));
}

// Epoch pinning: a request must never observe bindings from two epochs,
// and must be served under exactly the epoch current at submit time.
// Every epoch version carries distinct load values, so any tearing or
// re-reading of "current" mid-evaluation produces a value that matches
// no version's expectation.
TEST(ServeEpoch, RequestsPinTheSubmitTimeEpochUnderConcurrentPublishes) {
  constexpr std::uint64_t kEpochs = 100;
  const auto spec = small_spec();

  const auto loads_for_version = [](std::uint64_t k) {
    const double base = 0.5 + 0.4 * double(k) / double(kEpochs);
    return std::vector<stoch::StochasticValue>{
        stoch::StochasticValue(base, 0.05),
        stoch::StochasticValue(base - 0.1, 0.05)};
  };

  // Reference evaluation per version, outside the service.
  const predict::StructuralModel direct(
      predict::author_sor(spec.platform, spec.config, spec.options));
  std::map<std::uint64_t, stoch::StochasticValue> expected;
  for (std::uint64_t k = 1; k <= kEpochs; ++k) {
    expected.emplace(k, direct.predict(direct.make_slot_env(
                            loads_for_version(k), stoch::StochasticValue(1.0))));
  }

  const auto epoch_for = [&](std::uint64_t k) {
    const auto loads = loads_for_version(k);
    return std::make_shared<const BindingsEpoch>(
        k, std::map<std::string, stoch::StochasticValue>{
               {"cpu/a", loads[0]}, {"cpu/b", loads[1]}});
  };

  ServiceOptions options;
  options.workers = 4;
  PredictionService service(options);
  service.register_model("sor", spec);
  service.publish_epoch(epoch_for(1));

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t k = 2; k <= kEpochs && !stop.load(); ++k) {
      service.publish_epoch(epoch_for(k));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });

  constexpr int kSubmitters = 3;
  std::vector<std::thread> submitters;
  std::atomic<int> checked{0};
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        auto result =
            service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
        if (!result.ok()) continue;  // rejected under shutdown only
        const auto it = expected.find(result.epoch_version);
        if (it == expected.end() || result.value != it->second) {
          mismatch.store(true);
        }
        checked.fetch_add(1);
      }
    });
  }
  publisher.join();
  for (auto& t : submitters) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(checked.load(), 0);
}

// Concurrent publish / current on the bridge (TSan).
TEST(ServeEpoch, BridgePublishAndCurrentAreRaceFree) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.8 + (i % 2 == 0 ? 0.05 : -0.05));
  }
  NwsBridge bridge(nws_service, {"cpu/a"});
  const auto base = bridge.publish()->lookup("cpu/a");

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int i = 0; i < 500; ++i) (void)bridge.publish();
    stop.store(true);
  });
  std::atomic<bool> bad{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const auto epoch = bridge.current();
      if (!epoch) continue;
      const auto v = epoch->lookup("cpu/a");
      // Every epoch is the same complete snapshot, and versions only
      // move forward.
      if (v.mean() != base.mean() || v.halfwidth() != base.halfwidth() ||
          epoch->version() < last) {
        bad.store(true);
      }
      last = epoch->version();
    }
  });
  publisher.join();
  reader.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(bridge.current()->version(), 501u);
}

TEST(ServeService, StochasticPredictionMatchesDirectModel) {
  const auto spec = small_spec();
  const auto loads = loads_for(2);

  PredictionService service(options_with(2));
  service.register_model("sor", spec);
  const auto result =
      service.submit(stochastic_request("sor", loads)).get();
  ASSERT_TRUE(result.ok()) << result.error;

  const predict::StructuralModel direct(
      predict::author_sor(spec.platform, spec.config, spec.options));
  const auto expected =
      direct.predict(direct.make_slot_env(loads, stoch::StochasticValue(1.0)));
  EXPECT_DOUBLE_EQ(result.value.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(result.value.halfwidth(), expected.halfwidth());
}

TEST(ServeService, PointModeMatchesDirectPointPrediction) {
  const auto spec = small_spec();
  const auto loads = loads_for(2);
  PredictionService service(options_with(1));
  service.register_model("sor", spec);
  auto request = stochastic_request("sor", loads);
  request.mode = Mode::kPoint;
  const auto result = service.submit(std::move(request)).get();
  ASSERT_TRUE(result.ok()) << result.error;
  const predict::StructuralModel direct(
      predict::author_sor(spec.platform, spec.config, spec.options));
  const double expected = direct.predict_point(
      direct.make_slot_env(loads, stoch::StochasticValue(1.0)));
  EXPECT_DOUBLE_EQ(result.point, expected);
  EXPECT_DOUBLE_EQ(result.value.halfwidth(), 0.0);
}

// --- Served values pinned to the authoring tree -----------------------------

/// Strip SOR, block SOR and Jacobi over one shared-Ethernet platform.
std::vector<ModelSpec> structural_specs() {
  std::vector<ModelSpec> specs(3);
  for (auto& spec : specs) {
    spec.platform = cluster::platform1();
    spec.config.n = 400;
    spec.config.iterations = 15;
  }
  specs[0].app = ModelSpec::App::kSor;
  specs[1].app = ModelSpec::App::kBlockSor;
  specs[1].pr = 2;
  specs[1].pc = 2;
  specs[2].app = ModelSpec::App::kJacobi;
  return specs;
}

/// Request `i` against model "m": loads and bandwidth distinct per i.
PredictRequest pinned_request(const ModelSpec& spec, std::size_t i,
                              Mode mode) {
  PredictRequest request;
  request.model_id = "m";
  request.mode = mode;
  for (std::size_t h = 0; h < spec.platform.hosts.size(); ++h) {
    request.loads.emplace_back(0.45 + 0.1 * double(h) + 0.01 * double(i),
                               0.03 + 0.002 * double(i));
  }
  request.bwavail = stoch::StochasticValue(0.5 + 0.01 * double(i), 0.06);
  return request;
}

/// Expr::evaluate / evaluate_point of the spec's authored tree per request.
std::vector<stoch::StochasticValue> tree_values(
    const ModelSpec& spec, const std::vector<PredictRequest>& requests) {
  const predict::StructuralModel model([&] {
    switch (spec.app) {
      case ModelSpec::App::kBlockSor:
        return predict::author_block_sor(spec.platform, spec.config.n,
                                         spec.config.iterations, spec.pr,
                                         spec.pc, spec.options);
      case ModelSpec::App::kJacobi:
        return predict::author_jacobi(spec.platform, spec.config.n,
                                      spec.config.iterations, spec.options);
      case ModelSpec::App::kSor:
        break;
    }
    return predict::author_sor(spec.platform, spec.config, spec.options);
  }());
  std::vector<stoch::StochasticValue> out;
  for (const auto& request : requests) {
    const model::Environment env =
        model.make_env(request.loads, request.bwavail);
    out.push_back(request.mode == Mode::kPoint
                      ? stoch::StochasticValue(
                            model.expr()->evaluate_point(env))
                      : model.expr()->evaluate(env));
  }
  return out;
}

void expect_served(const PredictResult& r, const stoch::StochasticValue& want,
                   const std::string& what) {
  ASSERT_TRUE(r.ok()) << what << ": " << r.error;
  EXPECT_EQ(r.value.mean(), want.mean()) << what;
  EXPECT_EQ(r.value.halfwidth(), want.halfwidth()) << what;
  EXPECT_EQ(r.point, want.mean()) << what;
}

TEST(ServeService, ServedValuesEqualTreeEvaluationAloneTwinnedAndBatched) {
  // However a request reaches the kernel — alone, staged behind an
  // identical twin (coalesced onto one evaluation), or staged among
  // distinct-bindings requests of the same structure — the served value
  // is the authored tree's value bit for bit.
  constexpr std::size_t kDistinct = 6;
  const auto specs = structural_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ModelSpec& spec = specs[s];
    for (const Mode mode : {Mode::kStochastic, Mode::kPoint}) {
      const std::string what = "spec " + std::to_string(s) + " mode " +
                               std::to_string(int(mode));
      std::vector<PredictRequest> requests;
      for (std::size_t i = 0; i < kDistinct; ++i) {
        requests.push_back(pinned_request(spec, i, mode));
      }
      const auto want = tree_values(spec, requests);
      {
        PredictionService service(options_with(1));
        service.register_model("m", spec);
        for (std::size_t i = 0; i < kDistinct; ++i) {
          const auto r = service.submit(requests[i]).get();
          expect_served(r, want[i], what + " alone " + std::to_string(i));
          EXPECT_EQ(r.batch_size, 1u);
        }
      }
      {
        PredictionService service(options_with(1));
        service.pause();
        service.register_model("m", spec);
        std::vector<std::future<PredictResult>> futures;
        for (const auto& request : requests) {
          futures.push_back(service.submit(request));
          futures.push_back(service.submit(request));
        }
        service.resume();
        for (std::size_t j = 0; j < futures.size(); ++j) {
          const auto r = futures[j].get();
          expect_served(r, want[j / 2], what + " twin " + std::to_string(j));
          EXPECT_EQ(r.batch_size, 2u);
        }
      }
      {
        PredictionService service(options_with(1));
        service.pause();
        service.register_model("m", spec);
        std::vector<std::future<PredictResult>> futures;
        for (const auto& request : requests) {
          futures.push_back(service.submit(request));
        }
        service.resume();
        for (std::size_t i = 0; i < kDistinct; ++i) {
          expect_served(futures[i].get(), want[i],
                        what + " batched " + std::to_string(i));
        }
      }
    }
  }
}

TEST(ServeService, NarrowSpreadHalfwidthHoldsFrom2048To8192Trials) {
  // Loads and bandwidth with a relative spread of 1e-9: every sampled
  // runtime sits within a few 1e-9 of the mean, where combining blocks as
  // (sum of squares - n mean^2) / (n - 1) cancels to rounding noise. The
  // per-block moments merged by Chan's update keep the 8-block run's
  // half-width at the 2-block run's. Both estimate the same 2 sd, from
  // 8192 and 2048 trials: their sampling errors (about 1/sqrt(2n), 0.8%
  // and 1.6%) sit far inside the 10% tolerance.
  PredictionService service(options_with(2));
  service.register_model("sor", small_spec(200, 4));
  auto request = stochastic_request(
      "sor", std::vector<stoch::StochasticValue>(
                 4, stoch::StochasticValue(0.7, 0.7e-9)));
  request.bwavail = stoch::StochasticValue(0.6, 0.6e-9);
  request.mode = Mode::kMonteCarlo;
  request.seed = 2026;
  request.trials = 8192;
  const auto large = service.submit(request).get();
  request.trials = 2048;
  const auto small = service.submit(request).get();
  ASSERT_TRUE(large.ok()) << large.error;
  ASSERT_TRUE(small.ok()) << small.error;
  ASSERT_GT(small.value.halfwidth(), 0.0);
  EXPECT_NEAR(large.value.halfwidth() / small.value.halfwidth(), 1.0, 0.1)
      << "8192 trials " << large.value.halfwidth() << ", 2048 trials "
      << small.value.halfwidth();
}

TEST(ServeService, UnknownModelIdIsStructuredErrorAndPoolSurvives) {
  PredictionService service(options_with(2));
  service.register_model("sor", small_spec());
  const auto bad =
      service.submit(stochastic_request("nope", loads_for(2))).get();
  EXPECT_EQ(bad.status, PredictResult::Status::kError);
  EXPECT_NE(bad.error.find("unknown model id 'nope'"), std::string::npos);
  EXPECT_NE(bad.error.find("sor"), std::string::npos);  // lists registered

  // A poisoned request must not kill the pool: follow-ups still serve.
  const auto good =
      service.submit(stochastic_request("sor", loads_for(2))).get();
  EXPECT_TRUE(good.ok()) << good.error;
}

TEST(ServeService, BindingErrorsAreStructured) {
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());

  const auto wrong_count =
      service.submit(stochastic_request("sor", loads_for(3))).get();
  EXPECT_EQ(wrong_count.status, PredictResult::Status::kError);
  EXPECT_NE(wrong_count.error.find("needs 2 load bindings, got 3"),
            std::string::npos);

  const auto none = service.submit(stochastic_request("sor", {})).get();
  EXPECT_EQ(none.status, PredictResult::Status::kError);

  // Resource bindings without a published epoch.
  const auto no_epoch =
      service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
  EXPECT_EQ(no_epoch.status, PredictResult::Status::kError);
  EXPECT_NE(no_epoch.error.find("no bindings epoch"), std::string::npos);

  // Published epoch missing the requested resource.
  service.publish_epoch(std::make_shared<const BindingsEpoch>(
      1, std::map<std::string, stoch::StochasticValue>{
             {"cpu/a", stoch::StochasticValue(0.9, 0.1)}}));
  const auto missing =
      service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
  EXPECT_EQ(missing.status, PredictResult::Status::kError);
  EXPECT_NE(missing.error.find("cpu/b"), std::string::npos);
}

TEST(ServeService, SampledDivisionByZeroIsStructuredAndTheWorkerSurvives) {
  // A host load of exactly zero makes that host's compute term divide by
  // zero in every Monte-Carlo trial. Fixed-count and precision-targeted
  // requests both get a structured error, and the next request on the
  // same (only) worker is served.
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());
  for (const double precision : {0.0, 0.01}) {
    PredictRequest bad = stochastic_request(
        "sor", {stoch::StochasticValue(0.8, 0.1), stoch::StochasticValue(0.0)});
    bad.mode = Mode::kMonteCarlo;
    bad.trials = 600;
    bad.precision = precision;
    bad.precision_relative = true;
    const auto failed = service.submit(bad).get();
    EXPECT_EQ(failed.status, PredictResult::Status::kError);
    EXPECT_NE(failed.error.find("sampled division by zero"), std::string::npos)
        << failed.error;

    PredictRequest good = bad;
    good.loads = loads_for(2);
    const auto served = service.submit(good).get();
    EXPECT_TRUE(served.ok()) << served.error;
  }
}

TEST(ServeService, ErrorTextNamesTheSourceFileFromSrcOn) {
  // A load whose range spans zero makes that host's compute term divide
  // by it. The error a client receives names the failed check's file
  // relative to the source tree, whatever directory the server was built
  // in.
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());
  const auto failed =
      service
          .submit(stochastic_request("sor", {stoch::StochasticValue(0.8, 0.1),
                                             stoch::StochasticValue(0.1, 0.5)}))
          .get();
  EXPECT_EQ(failed.status, PredictResult::Status::kError);
  EXPECT_EQ(failed.error.rfind("src/", 0), 0u) << failed.error;
  EXPECT_NE(failed.error.find("spans zero"), std::string::npos)
      << failed.error;
}

TEST(ServeService, CoalescingSharesOneEvaluation) {
  ServiceOptions options;
  options.workers = 2;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  const auto request = stochastic_request("sor", loads_for(2));

  std::vector<std::future<PredictResult>> same;
  for (int i = 0; i < 6; ++i) same.push_back(service.submit(request));
  auto different = request;
  different.loads[0] = stoch::StochasticValue(0.5, 0.2);
  auto other = service.submit(std::move(different));

  service.resume();
  for (auto& f : same) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 6u);
  }
  const auto r = other.get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.batch_size, 1u);  // different bindings never coalesce
  EXPECT_EQ(service.metrics().counter("requests_coalesced").value(), 5u);
}

TEST(ServeService, BoundedQueueShedsOverload) {
  ServiceOptions options;
  options.workers = 1;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  // Distinct seeds so coalescing cannot merge them once resumed.
  std::vector<std::future<PredictResult>> futures;
  for (std::size_t i = 0; i < kQueueCapacity + 6; ++i) {
    auto request = stochastic_request("sor", loads_for(2));
    request.mode = Mode::kMonteCarlo;
    request.trials = 16;
    request.seed = i;
    futures.push_back(service.submit(std::move(request)));
  }
  std::size_t rejected = 0;
  // Shed requests resolve immediately, while the service is still paused.
  for (std::size_t i = kQueueCapacity; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    EXPECT_EQ(r.status, PredictResult::Status::kRejected);
    EXPECT_NE(r.error.find("queue full"), std::string::npos);
    ++rejected;
  }
  EXPECT_EQ(rejected, 6u);
  EXPECT_EQ(service.metrics().counter("requests_rejected").value(), 6u);
  // The shed path is attributed to its SPECIFIC reason, not just the
  // aggregate: these were capacity rejections, nothing else.
  EXPECT_EQ(service.metrics().counter("rejected_queue_full").value(), 6u);
  EXPECT_EQ(service.metrics().counter("rejected_stopped").value(), 0u);
  EXPECT_NE(service.metrics().render_json().find(
                "\"name\": \"rejected_queue_full\", \"kind\": \"counter\", "
                "\"value\": 6"),
            std::string::npos);
  service.resume();
  for (std::size_t i = 0; i < kQueueCapacity; ++i) {
    EXPECT_TRUE(futures[i].get().ok());
  }
}

TEST(ServeService, RequestsKeepTheEpochTheyWereAdmittedUnder) {
  ServiceOptions options;
  options.workers = 1;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  const auto make_epoch = [](std::uint64_t version) {
    return std::make_shared<const BindingsEpoch>(
        version, std::map<std::string, stoch::StochasticValue>{
                     {"cpu/a", stoch::StochasticValue(0.9, 0.05)},
                     {"cpu/b", stoch::StochasticValue(0.7, 0.05)}});
  };
  service.publish_epoch(make_epoch(1));
  auto first = service.submit(resource_request("sor", {"cpu/a", "cpu/b"}));
  service.publish_epoch(make_epoch(2));
  auto second = service.submit(resource_request("sor", {"cpu/a", "cpu/b"}));
  service.resume();
  const auto r1 = first.get();
  const auto r2 = second.get();
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.error << r2.error;
  EXPECT_EQ(r1.epoch_version, 1u);
  EXPECT_EQ(r2.epoch_version, 2u);
  // Same bindings but different epochs: they must not have coalesced.
  EXPECT_EQ(r1.batch_size, 1u);
  EXPECT_EQ(r2.batch_size, 1u);
}

TEST(ServeService, FakeClockMakesLatencyMetricsDeterministic) {
  auto clock = std::make_shared<support::FakeClock>();
  ServiceOptions options;
  options.workers = 1;
  options.clock = clock;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  auto future = service.submit(stochastic_request("sor", loads_for(2)));
  clock->advance(0.25);  // the request "waits" a quarter second in queue
  service.resume();
  const auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_DOUBLE_EQ(result.latency_seconds, 0.25);
  EXPECT_DOUBLE_EQ(service.metrics().histogram("latency_seconds").max(), 0.25);
}

TEST(ServeService, CacheHitsAfterWarmupAcrossAliases) {
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());
  service.register_model("sor-alias", small_spec());  // same structure
  for (const char* id : {"sor", "sor-alias", "sor", "sor-alias"}) {
    ASSERT_TRUE(
        service.submit(stochastic_request(id, loads_for(2))).get().ok());
  }
  EXPECT_EQ(service.cache().compile_count(), 1u);
  EXPECT_EQ(service.metrics().counter("cache_misses").value(), 1u);
  EXPECT_EQ(service.metrics().counter("cache_hits").value(), 3u);
}

TEST(ServeService, DrainWaitsForQueueAndWorkers) {
  PredictionService service(options_with(2));
  service.register_model("sor", small_spec());
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(stochastic_request("sor", loads_for(2))));
  }
  service.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

// --- Caller-runs serve() ----------------------------------------------------

/// Every field two evaluations of one request must share, bit for bit
/// (ids and latency differ by construction).
void expect_same_result(const PredictResult& got, const PredictResult& want,
                        const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(got.status, want.status) << what << ": " << got.error;
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(bits(got.value.mean()), bits(want.value.mean())) << what;
  EXPECT_EQ(bits(got.value.halfwidth()), bits(want.value.halfwidth())) << what;
  EXPECT_EQ(bits(got.point), bits(want.point)) << what;
  EXPECT_EQ(got.source, want.source) << what;
  EXPECT_EQ(got.epoch_version, want.epoch_version) << what;
  EXPECT_EQ(got.batch_size, want.batch_size) << what;
  EXPECT_EQ(got.mc_trials, want.mc_trials) << what;
  EXPECT_EQ(bits(got.mc_ci_halfwidth), bits(want.mc_ci_halfwidth)) << what;
  EXPECT_EQ(got.precision_met, want.precision_met) << what;
}

/// Epoch `version` binding "cpu/<h>" for `hosts` hosts plus "bw", with
/// values distinct per version.
EpochPtr numbered_epoch(std::uint64_t version, std::size_t hosts) {
  std::map<std::string, stoch::StochasticValue> bindings;
  for (std::size_t h = 0; h < hosts; ++h) {
    bindings.emplace("cpu/" + std::to_string(h),
                     stoch::StochasticValue(
                         0.5 + 0.04 * double(h) + 0.03 * double(version),
                         0.05 + 0.01 * double(version)));
  }
  bindings.emplace("bw", stoch::StochasticValue(0.4 + 0.05 * double(version),
                                                0.04));
  return std::make_shared<const BindingsEpoch>(version, std::move(bindings));
}

/// One request of every serving mode against model "m" of `spec`:
/// stochastic, point, Monte-Carlo within one engine block, Monte-Carlo
/// over several blocks, precision-targeted Monte-Carlo, and loads bound
/// by name.
std::vector<PredictRequest> every_mode(const ModelSpec& spec) {
  std::vector<PredictRequest> out;
  out.push_back(pinned_request(spec, 0, Mode::kStochastic));
  out.push_back(pinned_request(spec, 1, Mode::kPoint));
  PredictRequest mc = pinned_request(spec, 2, Mode::kMonteCarlo);
  mc.trials = 500;
  mc.seed = 7;
  out.push_back(mc);
  mc.trials = 3333;  // a partial last block
  mc.seed = 8;
  out.push_back(mc);
  mc.trials = 20000;
  mc.seed = 9;
  mc.precision = 0.02;
  mc.precision_relative = true;
  out.push_back(mc);
  PredictRequest named;
  named.model_id = "m";
  for (std::size_t h = 0; h < spec.platform.hosts.size(); ++h) {
    named.resources.push_back("cpu/" + std::to_string(h));
  }
  named.bwavail_resource = "bw";
  out.push_back(named);
  return out;
}

TEST(ServeService, FixedTrialMonteCarloIsSampleTrialsAtEveryCount) {
  // A fixed-trial Monte-Carlo request of any size is one
  // Program::sample_trials(env, Rng(seed), trials) call on the thread
  // that evaluates it, so the served bits depend only on the model, the
  // bindings, the seed and the trial count — not on the path in, the
  // worker count or a serving knob. The counts straddle the engine's
  // 1024-trial block and twice that.
  constexpr std::size_t kCounts[] = {2,    1023, 1024, 1025,
                                     2048, 2049, 7500, 8192};
  const auto specs = structural_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const CompiledModel compiled(specs[s]);
    for (const std::size_t workers : {1, 4}) {
      PredictionService service(options_with(workers));
      service.register_model("m", specs[s]);
      for (const std::size_t n : kCounts) {
        const std::string what = "spec " + std::to_string(s) + " workers " +
                                 std::to_string(workers) + " trials " +
                                 std::to_string(n);
        PredictRequest request =
            pinned_request(specs[s], n % 7, Mode::kMonteCarlo);
        request.trials = n;
        request.seed = 1000 + n;
        auto env = compiled.program().make_environment();
        for (std::size_t p = 0; p < request.loads.size(); ++p) {
          env.bind(compiled.load_slot(p), request.loads[p]);
        }
        if (compiled.uses_bandwidth()) {
          env.bind(compiled.bwavail_slot(), request.bwavail);
        }
        support::Rng rng(request.seed);
        PredictResult want;
        want.value = compiled.program().sample_trials(env, rng, n);
        want.point = want.value.mean();
        want.mc_trials = n;
        want.mc_ci_halfwidth =
            want.value.halfwidth() / std::sqrt(static_cast<double>(n));
        if (n == 8192) {
          // The sampled mean agrees with the stochastic calculus roughly.
          const double calculus = compiled.program().evaluate(env).mean();
          EXPECT_NEAR(want.value.mean(), calculus, 0.25 * calculus) << what;
        }
        expect_same_result(service.submit(request).get(), want,
                           what + " submit");
        expect_same_result(service.serve(request), want, what + " serve");
      }
    }
  }
}

TEST(ServeService, CallerRunsServeBitMatchesSubmitInEveryMode) {
  const auto specs = structural_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ModelSpec& spec = specs[s];
    PredictionService service(options_with(2));
    service.register_model("m", spec);
    service.publish_epoch(numbered_epoch(3, spec.platform.hosts.size()));
    const auto requests = every_mode(spec);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string what =
          "spec " + std::to_string(s) + " request " + std::to_string(i);
      const PredictResult queued = service.submit(requests[i]).get();
      ASSERT_TRUE(queued.ok()) << what << ": " << queued.error;
      expect_same_result(service.serve(requests[i]), queued, what);
      if (requests[i].precision > 0.0) {
        EXPECT_LT(queued.mc_trials, requests[i].trials) << what;
      }
    }
  }
}

TEST(ServeService, CallerRunsServeReportsTheSameStructuredErrors) {
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());
  const std::vector<PredictRequest> bad = {
      stochastic_request("nope", loads_for(2)),     // unknown id
      stochastic_request("sor", loads_for(3)),      // binding count
      resource_request("sor", {"cpu/a", "cpu/b"}),  // no epoch published
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const PredictResult queued = service.submit(bad[i]).get();
    const PredictResult served = service.serve(bad[i]);
    EXPECT_EQ(served.status, PredictResult::Status::kError) << i;
    EXPECT_FALSE(served.error.empty()) << i;
    expect_same_result(served, queued, "bad request " + std::to_string(i));
  }
  EXPECT_EQ(service.metrics().counter("requests_error").value(), 6u);
  // The calling thread survives a bad request like a worker does.
  EXPECT_TRUE(service.serve(stochastic_request("sor", loads_for(2))).ok());
}

TEST(ServeService, CallerRunsServeCountsRequestsAndNeverQueues) {
  // serve() needs no worker: it answers on a paused service — a large
  // fixed-trial Monte-Carlo request too — leaves the queue-depth gauge at
  // 0, and its ids close the observation loop.
  ServiceOptions options;
  options.workers = 1;
  options.ledger = std::make_shared<calib::AccuracyLedger>();
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  auto& m = service.metrics();
  for (std::uint64_t n = 1; n <= 3; ++n) {
    const PredictResult r =
        service.serve(stochastic_request("sor", loads_for(2)));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 1u);
    EXPECT_EQ(m.counter("requests_total").value(), n);
    EXPECT_EQ(m.counter("requests_ok").value(), n);
    EXPECT_EQ(m.gauge("queue_depth").value(), 0);
    EXPECT_TRUE(service.report_observation(r.request_id, r.point));
  }
  PredictRequest mc = stochastic_request("sor", loads_for(2));
  mc.mode = Mode::kMonteCarlo;
  mc.trials = 8192;
  mc.seed = 5;
  const PredictResult large = service.serve(mc);
  ASSERT_TRUE(large.ok()) << large.error;
  EXPECT_EQ(large.mc_trials, 8192u);
  EXPECT_EQ(m.counter("requests_ok").value(), 4u);
  EXPECT_EQ(m.gauge("queue_depth").value(), 0);
  EXPECT_TRUE(service.report_observation(large.request_id, large.point));
  service.drain();  // nothing queued: returns although paused
  EXPECT_EQ(m.counter("observations_recorded").value(), 4u);
}

TEST(ServeService, CallerRunsServeStressAgainstConcurrentSubmitAndPublish) {
  // Four threads serve() on a one-worker shard while a fifth submit()s
  // and a sixth keeps publishing epochs. Every result, whichever path
  // and epoch it took, must bit-match that request's one-at-a-time
  // result under the epoch it reports.
  constexpr std::uint64_t kEpochs = 4;
  constexpr int kServers = 4;
  constexpr int kPerThread = 150;
  const ModelSpec spec = structural_specs()[0];
  const std::size_t hosts = spec.platform.hosts.size();
  auto requests = every_mode(spec);
  requests[4].trials = 4000;  // keep the precision request short

  std::vector<std::vector<PredictResult>> reference(kEpochs + 1);
  for (std::uint64_t v = 1; v <= kEpochs; ++v) {
    PredictionService solo(options_with(1));
    solo.register_model("m", spec);
    solo.publish_epoch(numbered_epoch(v, hosts));
    for (const auto& request : requests) {
      reference[v].push_back(solo.submit(request).get());
      ASSERT_TRUE(reference[v].back().ok()) << reference[v].back().error;
    }
  }

  PredictionService service(options_with(1));
  service.register_model("m", spec);
  service.publish_epoch(numbered_epoch(1, hosts));

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  const auto check = [&](std::size_t i, const PredictResult& r) {
    if (!r.ok() || r.epoch_version < 1 || r.epoch_version > kEpochs) {
      mismatches.fetch_add(1);
      return;
    }
    const PredictResult& want = reference[r.epoch_version][i];
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    if (bits(r.value.mean()) != bits(want.value.mean()) ||
        bits(r.value.halfwidth()) != bits(want.value.halfwidth()) ||
        r.mc_trials != want.mc_trials) {
      mismatches.fetch_add(1);
    }
  };
  std::thread publisher([&] {
    for (std::uint64_t k = 0; !stop.load(); ++k) {
      service.publish_epoch(numbered_epoch(1 + k % kEpochs, hosts));
      std::this_thread::yield();
    }
  });
  std::thread submitter([&] {
    for (int k = 0; k < kPerThread; ++k) {
      const std::size_t i = std::size_t(k) % requests.size();
      check(i, service.submit(requests[i]).get());
    }
  });
  std::vector<std::thread> servers;
  for (int t = 0; t < kServers; ++t) {
    servers.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const std::size_t i = std::size_t(k + t) % requests.size();
        check(i, service.serve(requests[i]));
      }
    });
  }
  for (auto& t : servers) t.join();
  submitter.join();
  stop.store(true);
  publisher.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.metrics().counter("requests_ok").value(),
            std::uint64_t((kServers + 1) * kPerThread));
}

// The TSan target: concurrent submitters + an epoch publisher + a live
// nws::Service being observed while forecasted from other threads.
TEST(ServeService, ConcurrentSubmittersPublishersAndNwsReaders) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.85);
    nws_service.observe("cpu/b", 0.65);
  }
  NwsBridge bridge(nws_service, {"cpu/a", "cpu/b"});

  PredictionService service(options_with(4));
  service.register_model("sor", small_spec());
  service.publish_epoch(bridge.publish());

  std::atomic<bool> stop{false};
  // Writer: keeps observing new measurements and publishing epochs.
  std::thread publisher([&] {
    while (!stop.load()) {
      nws_service.observe("cpu/a", 0.85);
      nws_service.observe("cpu/b", 0.65);
      service.publish_epoch(bridge.publish());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Reader: concurrent forecast/history calls against the same service.
  std::thread reader([&] {
    while (!stop.load()) {
      (void)nws_service.forecast("cpu/a");
      (void)nws_service.history_size("cpu/b");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 30;
  std::vector<std::thread> submitters;
  std::atomic<int> ok{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto request = resource_request("sor", {"cpu/a", "cpu/b"});
        if (i % 5 == 0) {
          request.mode = Mode::kMonteCarlo;
          request.trials = 256;
          request.seed = std::uint64_t(t * 1000 + i);
        }
        if (service.submit(std::move(request)).get().ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop.store(true);
  publisher.join();
  reader.join();
  EXPECT_EQ(ok.load(), kSubmitters * kPerThread);
}

}  // namespace
}  // namespace sspred::serve
