// Closed-loop calibration demo (src/calib/): coverage degradation under
// load-regime drift, drift detection, and conformal coverage restoration.
//
// Setup: a task of fixed dedicated work runs repeatedly on one machine
// whose CPU availability is a synthetic load trace (machine/load_trace).
// The predictor is parameterized once, from the warmup window — the
// production hazard where model parameters go stale — and predicts
// work / load with the §2.3 stochastic calculus. Ground truth comes from
// the trace itself (LoadTrace::finish_time). Mid-stream the trace shifts
// to a slower, noisier regime:
//
//   * raw intervals keep ~nominal coverage on the stationary control
//     trace but collapse after the drift point;
//   * the Page-Hinkley detector on standardized residuals fires within a
//     few observations of the shift (and never on the control trace);
//   * the conformal recalibrator's rolling window re-widens the
//     intervals, restoring steady-state coverage to 95% ± 2%.
//
// Numbers are recorded in BENCH_calibration.json; the process exits
// non-zero if any of the three claims fails, so the demo is self-checking.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "calib/drift.hpp"
#include "calib/ledger.hpp"
#include "calib/recalibrate.hpp"
#include "machine/load_trace.hpp"
#include "stoch/arithmetic.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;

constexpr double kDt = 10.0;        // load sample interval, seconds
constexpr double kWork = 4.0;       // dedicated-seconds per task
constexpr std::size_t kWarmup = 64; // samples used to parameterize
constexpr std::size_t kTrials = 3000;
constexpr std::size_t kDriftAt = 1500;   // trial index of the regime shift
constexpr std::size_t kAdapt = 256;      // recalibration burn-in after drift
constexpr double kNominal = 0.95;

struct LoopResult {
  std::size_t trials = 0;
  std::size_t drift_point = 0;           // kTrials => no drift injected
  double coverage_raw_pre = 0.0;         // raw coverage before the shift
  double coverage_raw_post = 0.0;        // raw coverage after the shift
  double coverage_cal_steady = 0.0;      // recalibrated, post-adaptation
  double scale_steady = 0.0;             // conformal scale at the end
  std::size_t detection_index = 0;       // 0 => never fired
  calib::CalibrationSnapshot ledger;
};

machine::LoadTrace make_trace(bool drifting, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> samples;
  const std::size_t total = kWarmup + kTrials + 64;
  samples.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const bool shifted = drifting && i >= kWarmup + kDriftAt;
    const double a = shifted ? rng.normal(0.55, 0.10) : rng.normal(0.85, 0.04);
    samples.push_back(std::clamp(a, shifted ? 0.15 : 0.5, 1.0));
  }
  return machine::LoadTrace(kDt, samples);
}

LoopResult run_loop(const machine::LoadTrace& trace, std::size_t drift_point,
                    const std::string& model_id,
                    calib::AccuracyLedger& ledger,
                    calib::DriftMonitor& drift) {
  // Parameterize once from the warmup window (stale thereafter).
  const auto warmup = trace.samples().subspan(0, kWarmup);
  const auto load = stoch::StochasticValue::from_sample(warmup);
  const stoch::StochasticValue predicted = stoch::StochasticValue(kWork) / load;

  calib::RecalibratorOptions recal_options;
  recal_options.nominal = kNominal;
  recal_options.window = 128;
  recal_options.max_scale = 50.0;  // the regime shift needs ~15x widening
  calib::ConformalRecalibrator recal(recal_options);

  LoopResult r;
  r.trials = kTrials;
  r.drift_point = drift_point;
  std::size_t pre_hits = 0, pre_n = 0;
  std::size_t post_hits = 0, post_n = 0;
  std::size_t steady_hits = 0, steady_n = 0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const double start = double(kWarmup + i) * kDt;
    const double actual = trace.finish_time(start, kWork) - start;

    const auto scaled = recal.apply(model_id, predicted);
    const bool in_raw = predicted.contains(actual);
    const bool in_cal = scaled.contains(actual);
    if (i < drift_point) {
      ++pre_n;
      if (in_raw) ++pre_hits;
    } else {
      ++post_n;
      if (in_raw) ++post_hits;
      if (i >= drift_point + kAdapt) {
        ++steady_n;
        if (in_cal) ++steady_hits;
      }
    }

    const double z = (actual - predicted.mean()) / predicted.sd();
    if (drift.update(model_id, z, in_raw) && r.detection_index == 0) {
      r.detection_index = i + 1;
    }
    ledger.record(model_id, predicted, actual);
    recal.record(model_id, predicted, actual);
  }
  r.coverage_raw_pre = pre_n ? double(pre_hits) / double(pre_n) : 0.0;
  r.coverage_raw_post = post_n ? double(post_hits) / double(post_n) : 0.0;
  r.coverage_cal_steady =
      steady_n ? double(steady_hits) / double(steady_n) : 0.0;
  r.scale_steady = recal.scale(model_id);
  r.ledger = ledger.snapshot(model_id);
  return r;
}

void emit_json(const LoopResult& control, const LoopResult& drifted,
               bool control_fired, bool pass) {
  std::ofstream out("BENCH_calibration.json");
  out.precision(6);
  out << "{\n"
      << "  \"artifact\": \"bench_calibration\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"nominal_coverage\": " << kNominal << ",\n"
      << "  \"trials\": " << kTrials << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
      << "  \"control\": {\n"
      << "    \"coverage_raw\": " << control.coverage_raw_pre << ",\n"
      << "    \"drift_detected\": " << (control_fired ? "true" : "false")
      << ",\n"
      << "    \"mean_crps\": " << control.ledger.mean_crps << "\n"
      << "  },\n"
      << "  \"drift\": {\n"
      << "    \"drift_point\": " << drifted.drift_point << ",\n"
      << "    \"coverage_raw_pre_drift\": " << drifted.coverage_raw_pre
      << ",\n"
      << "    \"coverage_raw_post_drift\": " << drifted.coverage_raw_post
      << ",\n"
      << "    \"coverage_recalibrated_steady_state\": "
      << drifted.coverage_cal_steady << ",\n"
      << "    \"detection_index\": " << drifted.detection_index << ",\n"
      << "    \"detection_delay\": "
      << (drifted.detection_index > drifted.drift_point
              ? drifted.detection_index - drifted.drift_point
              : 0)
      << ",\n"
      << "    \"conformal_scale_steady_state\": " << drifted.scale_steady
      << ",\n"
      << "    \"rolling_coverage_final\": "
      << drifted.ledger.rolling_coverage << "\n"
      << "  }\n"
      << "}\n";
}

}  // namespace

int main() {
  bench::banner("calibration closed loop",
                "coverage under drift: ledger -> drift detector -> "
                "conformal recalibration (src/calib/)");

  // z on this workload has sd well above 1 (the stochastic calculus is
  // conservative about tails), so tolerate a wide stationary band: delta
  // absorbs residual bias, lambda sits far above stationary excursions
  // while the post-drift z (~12 sd) still trips it within a few trials.
  calib::DriftMonitorOptions drift_options;
  drift_options.page_hinkley.delta = 0.25;
  drift_options.page_hinkley.lambda = 40.0;
  drift_options.coverage.window = 64;
  drift_options.coverage.min_coverage = 0.80;

  bench::section("stationary control trace");
  calib::AccuracyLedger control_ledger;
  calib::DriftMonitor control_drift(drift_options,
                                    std::make_shared<support::FakeClock>());
  const auto control = run_loop(make_trace(false, 42), kTrials, "unit-task",
                                control_ledger, control_drift);
  const bool control_fired = !control_drift.alarms().empty();
  std::printf("  raw coverage %.1f%% (nominal %.0f%%), drift alarms: %zu\n",
              100.0 * control.coverage_raw_pre, 100.0 * kNominal,
              control_drift.alarms().size());

  bench::section("drifting trace (regime shift at trial 1500)");
  calib::AccuracyLedger drift_ledger;
  calib::DriftMonitor drift_monitor(drift_options,
                                    std::make_shared<support::FakeClock>());
  const auto drifted = run_loop(make_trace(true, 42), kDriftAt, "unit-task",
                                drift_ledger, drift_monitor);
  support::Table t({"segment", "coverage", "note"});
  t.add_row({"raw, pre-drift",
             support::fmt(100.0 * drifted.coverage_raw_pre, 1) + "%",
             "stale parameters still valid"});
  t.add_row({"raw, post-drift",
             support::fmt(100.0 * drifted.coverage_raw_post, 1) + "%",
             "coverage collapses"});
  t.add_row({"recalibrated, steady state",
             support::fmt(100.0 * drifted.coverage_cal_steady, 1) + "%",
             "conformal scale " + support::fmt(drifted.scale_steady, 2)});
  std::printf("%s", t.render().c_str());
  if (drifted.detection_index > drifted.drift_point) {
    std::printf("  detector fired at trial %zu (drift at %zu, delay %zu)\n",
                drifted.detection_index, drifted.drift_point,
                drifted.detection_index - drifted.drift_point);
  } else {
    std::printf("  detector fired at trial %zu (drift at %zu)\n",
                drifted.detection_index, drifted.drift_point);
  }

  const bool degraded = drifted.coverage_raw_post < kNominal - 0.10;
  const bool detected = drifted.detection_index > drifted.drift_point &&
                        drifted.detection_index <= drifted.drift_point + 64;
  const bool restored = drifted.coverage_cal_steady >= kNominal - 0.02 &&
                        drifted.coverage_cal_steady <= kNominal + 0.02;
  const bool pass = degraded && detected && restored && !control_fired;

  bench::section("verdict");
  std::printf("  degrades below nominal: %s\n", degraded ? "yes" : "NO");
  std::printf("  detected within 64 obs: %s\n", detected ? "yes" : "NO");
  std::printf("  restored to 95%% +/- 2%%: %s (%.1f%%)\n",
              restored ? "yes" : "NO", 100.0 * drifted.coverage_cal_steady);
  std::printf("  control stays quiet:    %s\n", control_fired ? "NO" : "yes");
  std::printf("  => %s (BENCH_calibration.json written)\n",
              pass ? "PASS" : "FAIL");

  emit_json(control, drifted, control_fired, pass);
  return pass ? 0 : 1;
}
