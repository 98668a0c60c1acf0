// Tests for the calibration subsystem (src/calib/): the streaming
// accuracy ledger against batch recomputation, the Page-Hinkley and
// windowed-coverage drift detectors (deterministic, FakeClock-stamped),
// the conformal recalibrator's coverage restoration, the
// PredictionService report_observation() feedback path, and a
// sim-engine closed loop.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "calib/drift.hpp"
#include "calib/ledger.hpp"
#include "calib/recalibrate.hpp"
#include "cluster/platform.hpp"
#include "predict/experiment.hpp"
#include "serve/service.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::calib {
namespace {

// --------------------------------------------------------------- ledger

TEST(CalibLedger, StreamingMatchesBatchRecomputation) {
  const stoch::StochasticValue predicted(10.0, 2.0);  // sd = 1
  support::Rng rng(11);
  AccuracyLedger ledger;
  std::vector<double> observed;
  for (int i = 0; i < 400; ++i) {
    observed.push_back(rng.normal(10.0, 1.0));
    ledger.record("m", predicted, observed.back());
  }

  std::uint64_t inside = 0;
  double crps_sum = 0.0, z_sum = 0.0;
  for (const double y : observed) {
    if (predicted.contains(y)) ++inside;
    crps_sum += normal_crps(predicted.mean(), predicted.sd(), y);
    z_sum += (y - predicted.mean()) / predicted.sd();
  }
  const double n = double(observed.size());

  const auto snap = ledger.snapshot("m");
  EXPECT_EQ(snap.count, observed.size());
  EXPECT_EQ(snap.inside, inside);
  EXPECT_DOUBLE_EQ(snap.coverage, double(inside) / n);
  EXPECT_DOUBLE_EQ(snap.sharpness, predicted.halfwidth());
  EXPECT_NEAR(snap.mean_crps, crps_sum / n, 1e-12);
  EXPECT_NEAR(snap.z_mean, z_sum / n, 1e-9);

  double z_m2 = 0.0;
  for (const double y : observed) {
    const double z = (y - predicted.mean()) / predicted.sd();
    z_m2 += (z - snap.z_mean) * (z - snap.z_mean);
  }
  EXPECT_NEAR(snap.z_sd, std::sqrt(z_m2 / (n - 1.0)), 1e-9);

  // Calibrated normal residuals: |z| nominal quantile sits near 2.
  EXPECT_NEAR(snap.abs_z_quantile, 2.0, 0.3);
  // Overall snapshot (single model) agrees.
  EXPECT_EQ(ledger.snapshot().count, snap.count);
  EXPECT_DOUBLE_EQ(ledger.snapshot().coverage, snap.coverage);
}

TEST(CalibLedger, RollingWindowTracksRecentCoverageOnly) {
  LedgerOptions options;
  options.coverage_window = 4;
  AccuracyLedger ledger(options);
  const stoch::StochasticValue predicted(10.0, 1.0);
  for (int i = 0; i < 4; ++i) ledger.record("m", predicted, 10.0);  // hits
  for (int i = 0; i < 4; ++i) ledger.record("m", predicted, 50.0);  // misses
  const auto snap = ledger.snapshot("m");
  EXPECT_EQ(snap.count, 8u);
  EXPECT_DOUBLE_EQ(snap.coverage, 0.5);          // cumulative
  EXPECT_DOUBLE_EQ(snap.rolling_coverage, 0.0);  // window holds the misses
  EXPECT_EQ(snap.rolling_count, 4u);
}

TEST(CalibLedger, PointPredictionsCountButCarryNoResiduals) {
  AccuracyLedger ledger;
  ledger.record("m", stoch::StochasticValue::point(5.0), 5.0);  // exact hit
  ledger.record("m", stoch::StochasticValue::point(5.0), 6.0);  // miss
  const auto snap = ledger.snapshot("m");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.point_predictions, 2u);
  EXPECT_EQ(snap.inside, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_crps, 0.0);
  EXPECT_DOUBLE_EQ(snap.z_sd, 0.0);
}

TEST(CalibLedger, PerModelSnapshotsAreIndependent) {
  AccuracyLedger ledger;
  const stoch::StochasticValue predicted(10.0, 1.0);
  ledger.record("good", predicted, 10.0);
  ledger.record("bad", predicted, 99.0);
  EXPECT_DOUBLE_EQ(ledger.snapshot("good").coverage, 1.0);
  EXPECT_DOUBLE_EQ(ledger.snapshot("bad").coverage, 0.0);
  EXPECT_DOUBLE_EQ(ledger.snapshot().coverage, 0.5);
  const auto ids = ledger.model_ids();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_THROW((void)ledger.snapshot("never-seen"), support::Error);
}

TEST(CalibLedger, NormalCrpsAndPinballClosedForms) {
  // CRPS of N(0,1) at y=0: 2*phi(0) - 1/sqrt(pi) = 0.233695...
  EXPECT_NEAR(normal_crps(0.0, 1.0, 0.0), 0.2336949, 1e-6);
  // CRPS scales with sd and is translation-invariant.
  EXPECT_NEAR(normal_crps(5.0, 2.0, 5.0), 2.0 * 0.2336949, 1e-6);
  // Far-out observation: CRPS approaches |y - mean| - sd/sqrt(pi).
  EXPECT_NEAR(normal_crps(0.0, 1.0, 50.0), 50.0 - 1.0 / std::sqrt(M_PI),
              1e-3);
  // Pinball loss at tau: tau*(y-q) above, (1-tau)*(q-y) below.
  EXPECT_DOUBLE_EQ(pinball_loss(1.0, 0.9, 2.0), 0.9);
  EXPECT_DOUBLE_EQ(pinball_loss(1.0, 0.9, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(pinball_loss(1.0, 0.9, 1.0), 0.0);
}

TEST(CalibLedger, MeanPinballBitExactAgainstNormalQuantiles) {
  // Reference: the pinball loss at the interval quantiles of the
  // predicted normal, each quantile taken from stats::Normal, averaged by
  // the same streaming accumulator the ledger keeps. The ledger must
  // reproduce it bit for bit, per model and overall, at any nominal
  // coverage and for any mix of means, spreads and point predictions.
  for (const double nominal : {0.95, 0.8, 0.5, 0.99}) {
    LedgerOptions options;
    options.nominal_coverage = nominal;
    AccuracyLedger ledger(options);
    const double tau_lo = (1.0 - nominal) / 2.0;
    const double tau_hi = 1.0 - tau_lo;
    std::map<std::string, stats::OnlineStats> per_model;
    stats::OnlineStats overall;
    support::Rng rng(29);
    for (int i = 0; i < 500; ++i) {
      const std::string id = i % 3 == 0 ? "a" : "b";
      const double mean = rng.uniform(-5.0, 50.0);
      const auto predicted =
          i % 7 == 0 ? stoch::StochasticValue::point(mean)
                     : stoch::StochasticValue::from_mean_sd(
                           mean, rng.uniform(1e-3, 8.0));
      const double observed = rng.normal(mean, 4.0);
      ledger.record(id, predicted, observed);
      if (predicted.is_point()) continue;
      const stats::Normal normal(predicted.mean(), predicted.sd());
      const double loss =
          0.5 * (pinball_loss(normal.quantile(tau_lo), tau_lo, observed) +
                 pinball_loss(normal.quantile(tau_hi), tau_hi, observed));
      per_model[id].add(loss);
      overall.add(loss);
    }
    for (const auto& [id, want] : per_model) {
      const double got = ledger.snapshot(id).mean_pinball;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want.mean()))
          << id << " at nominal " << nominal << ": " << got << " vs "
          << want.mean();
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ledger.snapshot().mean_pinball),
              std::bit_cast<std::uint64_t>(overall.mean()))
        << "overall at nominal " << nominal;
  }
}

// ---------------------------------------------------------------- drift

TEST(CalibLedger, RollingCrpsScoresEveryObservationIncludingPoints) {
  LedgerOptions options;
  options.coverage_window = 4;
  AccuracyLedger ledger(options);
  // Two point predictions (|error| 1 and 3) and two normal ones.
  ledger.record("m", stoch::StochasticValue(10.0, 0.0), 11.0);
  ledger.record("m", stoch::StochasticValue(10.0, 0.0), 13.0);
  ledger.record("m", stoch::StochasticValue(10.0, 2.0), 10.0);
  ledger.record("m", stoch::StochasticValue(10.0, 2.0), 12.0);
  auto s = ledger.snapshot("m");
  EXPECT_EQ(s.rolling_crps_count, 4u);
  const double expected =
      (1.0 + 3.0 + normal_crps(10.0, 1.0, 10.0) + normal_crps(10.0, 1.0, 12.0)) /
      4.0;
  EXPECT_NEAR(s.rolling_crps, expected, 1e-12);
  // The cumulative mean_crps still excludes points (no residual defined).
  EXPECT_NEAR(s.mean_crps,
              (normal_crps(10.0, 1.0, 10.0) + normal_crps(10.0, 1.0, 12.0)) /
                  2.0,
              1e-12);

  // The ring is bounded: a fifth observation evicts the first.
  ledger.record("m", stoch::StochasticValue(10.0, 0.0), 10.0);
  s = ledger.snapshot("m");
  EXPECT_EQ(s.rolling_crps_count, 4u);
  const double evicted =
      (3.0 + normal_crps(10.0, 1.0, 10.0) + normal_crps(10.0, 1.0, 12.0) +
       0.0) /
      4.0;
  EXPECT_NEAR(s.rolling_crps, evicted, 1e-12);
}

TEST(CalibLedger, HasProbesWithoutThrowing) {
  AccuracyLedger ledger;
  EXPECT_FALSE(ledger.has("m"));
  EXPECT_THROW((void)ledger.snapshot("m"), support::Error);
  ledger.record("m", stoch::StochasticValue(10.0, 2.0), 10.0);
  EXPECT_TRUE(ledger.has("m"));
  EXPECT_FALSE(ledger.has("other"));
}

TEST(CalibLedger, P2QuantileStaysPinnedOnConstantStreams) {
  // A constant observation stream yields a constant |z|; the P² sketch
  // must report exactly that value, not drift or divide by zero.
  AccuracyLedger ledger;
  for (int i = 0; i < 200; ++i) {
    // z = (12 - 10) / 1 = 2 every time.
    ledger.record("m", stoch::StochasticValue(10.0, 2.0), 12.0);
  }
  const auto s = ledger.snapshot("m");
  EXPECT_NEAR(s.abs_z_quantile, 2.0, 1e-9);
  EXPECT_NEAR(s.z_mean, 2.0, 1e-12);
  EXPECT_NEAR(s.z_sd, 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(s.rolling_crps));
}

TEST(CalibDrift, PageHinkleyDetectsUpwardShift) {
  PageHinkley ph;  // delta 0.05, lambda 12, min_samples 16
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(ph.update(0.0));
  int fired_at = -1;
  for (int i = 0; i < 20; ++i) {
    if (ph.update(5.0)) {
      fired_at = i;
      break;
    }
  }
  ASSERT_GE(fired_at, 0);
  EXPECT_LE(fired_at, 5);  // ~each shifted sample adds ~5 to the statistic
  EXPECT_TRUE(ph.triggered());
  EXPECT_FALSE(ph.update(5.0));  // latched: fires exactly once
  ph.reset();
  EXPECT_FALSE(ph.triggered());
  EXPECT_EQ(ph.samples(), 0u);
}

TEST(CalibDrift, PageHinkleyDetectsDownwardShift) {
  PageHinkley ph;
  for (int i = 0; i < 50; ++i) ph.update(0.0);
  int fired_at = -1;
  for (int i = 0; i < 20; ++i) {
    if (ph.update(-5.0)) {
      fired_at = i;
      break;
    }
  }
  ASSERT_GE(fired_at, 0);
  EXPECT_LE(fired_at, 5);
}

TEST(CalibDrift, PageHinkleyQuietOnStationaryNoise) {
  PageHinkleyOptions options;
  options.delta = 0.1;
  options.lambda = 25.0;
  PageHinkley ph(options);
  support::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(ph.update(rng.normal(0.0, 1.0)));
  }
  EXPECT_FALSE(ph.triggered());
}

TEST(CalibDrift, PageHinkleyRespectsMinSamples) {
  PageHinkleyOptions options;
  options.min_samples = 10;
  options.lambda = 1.0;
  PageHinkley ph(options);
  // A blatant shift from the start must still wait out min_samples.
  for (int i = 0; i < 9; ++i) EXPECT_FALSE(ph.update(double(i % 2) * 10.0));
  bool fired = false;
  for (int i = 0; i < 10 && !fired; ++i) fired = ph.update(10.0);
  EXPECT_TRUE(fired);
}

TEST(CalibDrift, WindowedCoverageFiresExactlyWhenWindowDipsBelowFloor) {
  WindowedCoverageOptions options;
  options.window = 8;
  options.min_coverage = 0.80;
  WindowedCoverageDetector d(options);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(d.update(true));
  EXPECT_DOUBLE_EQ(d.rolling_coverage(), 1.0);
  EXPECT_FALSE(d.update(false));  // 7/8 = 0.875 >= 0.80
  EXPECT_TRUE(d.update(false));   // 6/8 = 0.75 < 0.80
  EXPECT_TRUE(d.triggered());
  EXPECT_FALSE(d.update(false));  // latched
  d.reset();
  EXPECT_FALSE(d.triggered());
  EXPECT_DOUBLE_EQ(d.rolling_coverage(), 0.0);
}

TEST(CalibDrift, WindowedCoverageWaitsForFullWindow) {
  WindowedCoverageOptions options;
  options.window = 8;
  options.min_coverage = 0.80;
  WindowedCoverageDetector d(options);
  // All misses, but the window never fills: no alarm yet.
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(d.update(false));
  EXPECT_FALSE(d.triggered());
  EXPECT_TRUE(d.update(false));  // eighth observation completes the window
}

TEST(CalibDrift, DriftMonitorStampsAlarmsWithInjectedClock) {
  auto clock = std::make_shared<support::FakeClock>(100.0);
  DriftMonitorOptions options;
  options.coverage.window = 4;
  options.coverage.min_coverage = 0.9;
  DriftMonitor monitor(options, clock);

  // Stationary residuals, all inside: no alarms.
  for (int i = 0; i < 30; ++i) {
    EXPECT_FALSE(monitor.update("m", 0.0, true));
    clock->advance(1.0);
  }
  EXPECT_FALSE(monitor.triggered("m"));

  // Shift the residual mean; Page-Hinkley fires at a clock-stamped time.
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) {
    fired = monitor.update("m", 6.0, true);
    clock->advance(1.0);
  }
  ASSERT_TRUE(fired);
  EXPECT_TRUE(monitor.triggered("m"));
  auto alarms = monitor.alarms();
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].model_id, "m");
  EXPECT_EQ(alarms[0].detector, "page_hinkley");
  EXPECT_GT(alarms[0].observation, 30u);
  EXPECT_GE(alarms[0].time, 130.0);  // after the 30 stationary ticks
  EXPECT_LT(alarms[0].time, 150.0);

  // Determinism: the same drive on a fresh monitor yields the same alarm.
  auto clock2 = std::make_shared<support::FakeClock>(100.0);
  DriftMonitor monitor2(options, clock2);
  for (int i = 0; i < 30; ++i) {
    monitor2.update("m", 0.0, true);
    clock2->advance(1.0);
  }
  bool fired2 = false;
  for (int i = 0; i < 20 && !fired2; ++i) {
    fired2 = monitor2.update("m", 6.0, true);
    clock2->advance(1.0);
  }
  ASSERT_EQ(monitor2.alarms().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor2.alarms()[0].time, alarms[0].time);
  EXPECT_EQ(monitor2.alarms()[0].observation, alarms[0].observation);
}

TEST(CalibDrift, DriftMonitorCoverageDetectorAndPerModelIsolation) {
  auto clock = std::make_shared<support::FakeClock>(0.0);
  DriftMonitorOptions options;
  options.coverage.window = 8;
  options.coverage.min_coverage = 0.80;
  DriftMonitor monitor(options, clock);
  // Model "sick" misses every interval; "fine" always hits.
  bool fired = false;
  for (int i = 0; i < 8; ++i) {
    fired = monitor.update("sick", 0.0, false);
    monitor.update("fine", 0.0, true);
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(monitor.triggered("sick"));
  EXPECT_FALSE(monitor.triggered("fine"));
  ASSERT_EQ(monitor.alarms().size(), 1u);
  EXPECT_EQ(monitor.alarms()[0].detector, "coverage");
  EXPECT_EQ(monitor.alarms()[0].observation, 8u);

  // reset() re-arms the detectors but keeps the alarm history.
  monitor.reset("sick");
  EXPECT_FALSE(monitor.triggered("sick"));
  EXPECT_EQ(monitor.alarms().size(), 1u);
}

// ---------------------------------------------------------- recalibrate

// Regression: a zero or near-zero predicted half-width must not poison
// the score window. Dividing by a denormal half-width used to inject an
// astronomically large (or inf) normalized score that pinned the
// conformal quantile to max_scale for a full window.
TEST(CalibRecalibrate, DegenerateHalfwidthsCarryNoScore) {
  RecalibratorOptions options;
  options.min_samples = 4;
  ConformalRecalibrator recal(options);
  // True points were always ignored...
  recal.record("m", stoch::StochasticValue(10.0, 0.0), 15.0);
  // ...and near-zero half-widths (below the relative floor) now are too,
  // instead of scoring |err| / 1e-300.
  recal.record("m", stoch::StochasticValue(10.0, 1e-300), 15.0);
  recal.record("m", stoch::StochasticValue(10.0, 1e-12), 15.0);
  EXPECT_EQ(recal.count("m"), 0u);
  EXPECT_DOUBLE_EQ(recal.scale("m"), 1.0);

  // Healthy intervals still score; the degenerate ones never entered the
  // window, so the scale reflects only real residuals.
  for (int i = 0; i < 8; ++i) {
    recal.record("m", stoch::StochasticValue(10.0, 2.0), 11.0);
  }
  EXPECT_EQ(recal.count("m"), 8u);
  EXPECT_GT(recal.scale("m"), 0.0);
  EXPECT_LE(recal.scale("m"), options.max_scale);
  EXPECT_TRUE(std::isfinite(recal.scale("m")));
}

TEST(CalibRecalibrate, ScaleStaysAtOneUntilMinSamples) {
  RecalibratorOptions options;
  options.min_samples = 10;
  ConformalRecalibrator recal(options);
  const stoch::StochasticValue predicted(10.0, 2.0);
  for (int i = 0; i < 9; ++i) {
    recal.record("m", predicted, 10.0 + double(i % 3) * 3.0);
    EXPECT_DOUBLE_EQ(recal.scale("m"), 1.0);
  }
  recal.record("m", predicted, 11.0);
  EXPECT_EQ(recal.count("m"), 10u);
  EXPECT_NE(recal.scale("m"), 1.0);
  // Unknown models keep the identity scale.
  EXPECT_DOUBLE_EQ(recal.scale("other"), 1.0);
}

TEST(CalibRecalibrate, RestoresCoverageWhenIntervalsAreTooNarrow) {
  // The model claims sd=1 but the truth has sd=3: raw ±2sd intervals
  // cover ~50%. The conformal scale must re-attain ~nominal coverage.
  const stoch::StochasticValue predicted(20.0, 2.0);
  support::Rng rng(23);
  ConformalRecalibrator recal;
  std::size_t raw_hits = 0, cal_hits = 0, scored = 0;
  for (int i = 0; i < 4000; ++i) {
    const double y = rng.normal(20.0, 3.0);
    const auto widened = recal.apply("m", predicted);
    if (i >= 200) {  // skip the warmup where scale is still adapting
      ++scored;
      if (predicted.contains(y)) ++raw_hits;
      if (widened.contains(y)) ++cal_hits;
    }
    recal.record("m", predicted, y);
  }
  const double raw = double(raw_hits) / double(scored);
  const double cal = double(cal_hits) / double(scored);
  EXPECT_LT(raw, 0.60);
  EXPECT_GT(cal, 0.92);
  EXPECT_LT(cal, 0.99);
  // The fitted scale is close to the truth's sd inflation (3x).
  EXPECT_NEAR(recal.scale("m"), 3.0, 0.6);
}

TEST(CalibRecalibrate, ApplyScalesHalfwidthOnly) {
  RecalibratorOptions options;
  options.min_samples = 4;
  ConformalRecalibrator recal(options);
  const stoch::StochasticValue predicted(10.0, 2.0);
  for (int i = 0; i < 8; ++i) recal.record("m", predicted, 16.0);  // s = 3
  const double s = recal.scale("m");
  EXPECT_NEAR(s, 3.0, 1e-9);
  const auto widened = recal.apply("m", predicted);
  EXPECT_DOUBLE_EQ(widened.mean(), predicted.mean());
  EXPECT_DOUBLE_EQ(widened.halfwidth(), s * predicted.halfwidth());
  // Point predictions pass through apply() and are ignored by record().
  const auto point = stoch::StochasticValue::point(5.0);
  EXPECT_TRUE(recal.apply("m", point).is_point());
  recal.record("m", point, 99.0);
  EXPECT_EQ(recal.count("m"), 8u);
}

TEST(CalibRecalibrate, ScaleIsClampedBothWays) {
  RecalibratorOptions options;
  options.min_samples = 4;
  options.min_scale = 0.25;
  options.max_scale = 10.0;
  ConformalRecalibrator recal(options);
  const stoch::StochasticValue predicted(10.0, 2.0);
  // Perfect point observations: every score is 0 -> clamps to min_scale.
  for (int i = 0; i < 8; ++i) recal.record("tight", predicted, 10.0);
  EXPECT_DOUBLE_EQ(recal.scale("tight"), 0.25);
  // Wild observations: scores ~45 -> clamps to max_scale.
  for (int i = 0; i < 8; ++i) recal.record("wild", predicted, 100.0);
  EXPECT_DOUBLE_EQ(recal.scale("wild"), 10.0);
}

// ---------------------------------------------------- serve integration

serve::ModelSpec small_spec(std::size_t n = 200, std::size_t hosts = 2) {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

serve::PredictRequest stochastic_request(const std::string& id,
                                         std::size_t hosts = 2) {
  serve::PredictRequest request;
  request.model_id = id;
  for (std::size_t i = 0; i < hosts; ++i) {
    request.loads.push_back(stoch::StochasticValue(0.8, 0.1));
  }
  return request;
}

TEST(CalibServe, ReportObservationFeedsTheLedger) {
  auto ledger = std::make_shared<AccuracyLedger>();
  serve::ServiceOptions options;
  options.workers = 2;
  options.ledger = ledger;
  serve::PredictionService service(options);
  service.register_model("sor", small_spec());

  auto result = service.submit(stochastic_request("sor")).get();
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.request_id, 0u);

  EXPECT_TRUE(service.report_observation(result.request_id,
                                         result.value.mean()));
  const auto snap = ledger->snapshot("sor");
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.inside, 1u);  // we reported the predicted mean itself
  EXPECT_DOUBLE_EQ(snap.sharpness, result.value.halfwidth());

  // Double report and unknown ids are unmatched, not errors.
  EXPECT_FALSE(service.report_observation(result.request_id, 1.0));
  EXPECT_FALSE(service.report_observation(999999, 1.0));
  EXPECT_EQ(ledger->snapshot("sor").count, 1u);
  EXPECT_EQ(service.metrics().counter("observations_recorded").value(), 1u);
  EXPECT_EQ(service.metrics().counter("observations_unmatched").value(), 2u);
}

TEST(CalibServe, ReportWithoutLedgerIsUnmatched) {
  serve::PredictionService service;
  service.register_model("sor", small_spec());
  auto result = service.submit(stochastic_request("sor")).get();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(service.report_observation(result.request_id, 1.0));
}

TEST(CalibServe, CompletedPredictionsAreFifoBounded) {
  auto ledger = std::make_shared<AccuracyLedger>();
  serve::ServiceOptions options;
  options.workers = 1;
  options.ledger = ledger;
  serve::PredictionService service(options);
  service.register_model("sor", small_spec());

  constexpr std::size_t kRequests = serve::kObservationCapacity + 4;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto result = service.submit(stochastic_request("sor")).get();
    ASSERT_TRUE(result.ok());
    ids.push_back(result.request_id);
  }
  // The four oldest were evicted; the kObservationCapacity newest still
  // match.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(service.report_observation(ids[i], 1.0));
  }
  for (std::size_t i = 4; i < kRequests; ++i) {
    EXPECT_TRUE(service.report_observation(ids[i], 1.0));
  }
  EXPECT_EQ(ledger->snapshot("sor").count, serve::kObservationCapacity);
}

// Concurrent submit + report from many threads; run under TSan in CI.
TEST(CalibServe, ConcurrentReportersAreRaceFree) {
  auto ledger = std::make_shared<AccuracyLedger>();
  serve::ServiceOptions options;
  options.workers = 4;
  options.ledger = ledger;
  serve::PredictionService service(options);
  service.register_model("sor", small_spec());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  std::atomic<int> recorded{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &recorded] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result = service.submit(stochastic_request("sor")).get();
        if (result.ok() &&
            service.report_observation(result.request_id,
                                       result.value.mean())) {
          recorded.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorded.load(), kThreads * kPerThread);
  EXPECT_EQ(ledger->snapshot("sor").count,
            std::uint64_t(kThreads * kPerThread));
}

// ------------------------------------------------------- closed loop

// Ground truth from the sim engine: run the predict-then-execute series
// and feed (prediction, actual) into the full calibration stack. Twice,
// to pin down determinism of the whole loop.
TEST(CalibClosedLoop, SimSeriesIsDeterministicThroughTheStack) {
  predict::SeriesConfig cfg;
  cfg.platform = cluster::platform1();
  cfg.sor.n = 300;
  cfg.sor.iterations = 10;
  cfg.sor.real_numerics = false;
  cfg.trials = 4;
  cfg.load_source = predict::LoadParameterSource::kRecentSample;
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);

  const auto run_once = [&cfg] {
    const auto outcomes = predict::run_series(cfg);
    AccuracyLedger ledger;
    ConformalRecalibrator recal;
    auto clock = std::make_shared<support::FakeClock>(0.0);
    DriftMonitor monitor({}, clock);
    for (const auto& o : outcomes) {
      clock->set(o.start_time);
      ledger.record("sor", o.predicted, o.actual);
      recal.record("sor", o.predicted, o.actual);
      const double z = (o.actual - o.predicted.mean()) / o.predicted.sd();
      monitor.update("sor", z, o.predicted.contains(o.actual));
    }
    return std::tuple{ledger.snapshot("sor"), recal.scale("sor"),
                      monitor.alarms().size()};
  };

  const auto [snap1, scale1, alarms1] = run_once();
  const auto [snap2, scale2, alarms2] = run_once();
  EXPECT_EQ(snap1.count, 4u);
  EXPECT_GT(snap1.sharpness, 0.0);
  EXPECT_DOUBLE_EQ(snap1.coverage, snap2.coverage);
  EXPECT_DOUBLE_EQ(snap1.mean_crps, snap2.mean_crps);
  EXPECT_DOUBLE_EQ(snap1.z_mean, snap2.z_mean);
  EXPECT_DOUBLE_EQ(snap1.abs_z_quantile, snap2.abs_z_quantile);
  EXPECT_DOUBLE_EQ(scale1, scale2);
  EXPECT_EQ(alarms1, alarms2);
}

}  // namespace
}  // namespace sspred::calib
