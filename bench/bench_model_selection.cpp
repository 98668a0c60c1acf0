// Ledger-arbitrated model selection demo (src/learn/): a learned
// predictor bank overtaking a stale structural model under unmodeled
// drift, with the arbiter flipping the serving source under hysteresis.
//
// Setup: a closed predict->observe loop against a learning-enabled
// PredictionService. Requests bind FIXED (stale) load parameters, so the
// structural prediction never moves; ground truth is synthesized from
// the structural prediction itself plus a regime factor:
//
//   * drift trace — factor 1.0 (structural calibrated) for the first
//     segment, then an unmodeled 1.5x slowdown. The RLS bank tracks the
//     drifted stream and the arbiter flips the serving source within a
//     bounded number of post-drift observations;
//   * mixed-regime trace — the factor alternates faster than either
//     pure candidate can be trusted across a rolling window; the
//     moment-matched blended candidate hedges both regimes and wins the
//     rolling-CRPS arbitration.
//
// Claims checked (process exits non-zero if any fails):
//   1. no flip before the drift point;
//   2. post-drift flip within kFlipBound observations;
//   3. served (learned) rolling CRPS strictly better than the stale
//      structural candidate after the flip;
//   4. steady-state coverage of the served intervals restored to >= 90%;
//   5. blended beats both pure candidates on the mixed-regime trace;
//   6. the whole loop is bit-identical when re-run (fixed seed).
//
// Numbers are recorded in BENCH_model_selection.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "learn/arbiter.hpp"
#include "learn/bank.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kDriftAt = 160;    // trial index of the regime shift
constexpr std::size_t kDriftTrials = 420;
constexpr std::size_t kFlipBound = 96;   // post-drift observations allowed
                                         // before the flip (CI-regressed)
constexpr std::size_t kSteadyBurnin = 128;  // post-drift trials before the
                                            // coverage claim is scored
constexpr double kDriftFactor = 1.5;
constexpr std::size_t kMixedTrials = 420;
constexpr std::size_t kMixedPeriod = 8;  // regime block length, trials

struct LoopResult {
  std::size_t flip_trial = 0;  ///< 1-based; 0 => never flipped
  std::uint64_t flips_before_drift = 0;
  double coverage_steady = 0.0;
  std::vector<double> served_means;
  learn::ModelArbitration table;
};

serve::ModelSpec sor_spec() {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(2);
  spec.config.n = 250;
  spec.config.iterations = 8;
  return spec;
}

serve::PredictRequest stale_request() {
  serve::PredictRequest request;
  request.model_id = "sor";
  // Stale bindings: the loads the model was parameterized with, never
  // refreshed — the production hazard the learned bank exists for.
  request.loads = {stoch::StochasticValue(0.85, 0.06),
                   stoch::StochasticValue(0.85, 0.06)};
  return request;
}

/// One closed loop: `factor(i)` maps the trial index to the unmodeled
/// runtime multiplier; observed = factor * structural_mean + noise.
template <typename FactorFn>
LoopResult run_loop(std::size_t trials, double noise_sd_fraction,
                    FactorFn factor,
                    std::shared_ptr<learn::PredictorBank> bank = nullptr) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.enable_learning = true;
  options.bank = std::move(bank);
  serve::PredictionService service(options);
  service.register_model("sor", sor_spec());

  support::Rng rng(kSeed);
  LoopResult r;
  std::size_t steady_n = 0, steady_hits = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    auto result = service.submit(stale_request()).get();
    if (!result.ok()) {
      std::fprintf(stderr, "predict failed: %s\n", result.error.c_str());
      std::exit(1);
    }
    r.served_means.push_back(result.value.mean());
    // Ground truth: the structural model was right about the shape; the
    // regime factor is what it cannot see. Noise rides on the
    // structural spread so segment-1 coverage is honestly ~nominal.
    const double structural_mean = result.value.mean();
    const double base =
        i == 0 ? structural_mean
               : r.served_means.front();  // fixed reference, not feedback
    const double observed = factor(i) * base +
                            rng.normal(0.0, noise_sd_fraction * base);
    if (i + 1 > kDriftAt + kSteadyBurnin) {
      ++steady_n;
      if (result.value.contains(observed)) ++steady_hits;
    }
    service.report_observation(result.request_id, observed);
    if (i + 1 == kDriftAt) {
      r.flips_before_drift = service.arbiter()->flips_total();
    }
    if (r.flip_trial == 0 &&
        service.arbiter()->source("sor") != learn::Source::kStructural) {
      r.flip_trial = i + 1;
    }
  }
  service.drain();
  r.coverage_steady = steady_n ? double(steady_hits) / double(steady_n) : 0.0;
  const auto table = service.arbiter()->table();
  if (table.size() == 1) r.table = table[0];
  return r;
}

LoopResult run_drift_loop() {
  return run_loop(kDriftTrials, 0.02, [](std::size_t i) {
    return i < kDriftAt ? 1.0 : kDriftFactor;
  });
}

LoopResult run_mixed_loop() {
  // A fast-forgetting bank chases each regime with a lag comparable to
  // the block length, so the learned candidate is wrong exactly when
  // structural is right (and vice versa): the anti-correlated-errors
  // regime the moment-matched blend hedges.
  return run_loop(
      kMixedTrials, 0.02,
      [](std::size_t i) {
        return (i / kMixedPeriod) % 2 == 0 ? 1.0 : kDriftFactor;
      },
      std::make_shared<learn::PredictorBank>(/*forgetting=*/0.7));
}

void emit_json(const LoopResult& drift, const LoopResult& mixed,
               bool deterministic, bool pass) {
  std::ofstream out("BENCH_model_selection.json");
  out.precision(6);
  const std::size_t flip_delay =
      drift.flip_trial > kDriftAt ? drift.flip_trial - kDriftAt : 0;
  out << "{\n"
      << "  \"artifact\": \"bench_model_selection\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
      << "  \"drift\": {\n"
      << "    \"trials\": " << kDriftTrials << ",\n"
      << "    \"drift_at\": " << kDriftAt << ",\n"
      << "    \"drift_factor\": " << kDriftFactor << ",\n"
      << "    \"flip_trial\": " << drift.flip_trial << ",\n"
      << "    \"flip_delay\": " << flip_delay << ",\n"
      << "    \"flip_bound\": " << kFlipBound << ",\n"
      << "    \"flips_before_drift\": " << drift.flips_before_drift << ",\n"
      << "    \"rolling_crps_structural\": "
      << drift.table.structural.rolling_crps << ",\n"
      << "    \"rolling_crps_learned\": " << drift.table.learned.rolling_crps
      << ",\n"
      << "    \"coverage_steady_state\": " << drift.coverage_steady << "\n"
      << "  },\n"
      << "  \"mixed\": {\n"
      << "    \"trials\": " << kMixedTrials << ",\n"
      << "    \"period\": " << kMixedPeriod << ",\n"
      << "    \"rolling_crps_structural\": "
      << mixed.table.structural.rolling_crps << ",\n"
      << "    \"rolling_crps_learned\": " << mixed.table.learned.rolling_crps
      << ",\n"
      << "    \"rolling_crps_blended\": " << mixed.table.blended.rolling_crps
      << ",\n"
      << "    \"serving\": \"" << learn::source_name(mixed.table.serving)
      << "\"\n"
      << "  },\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << "\n"
      << "}\n";
}

}  // namespace

int main() {
  bench::banner("learned-predictor model selection",
                "graybox RLS bank vs stale structural model: "
                "ledger-arbitrated serving-source flip (src/learn/)");

  bench::section("drift trace (unmodeled 1.5x slowdown at trial 160)");
  const LoopResult drift = run_drift_loop();
  support::Table t({"candidate", "rolling CRPS", "rolling coverage"});
  t.add_row({"structural (stale)",
             support::fmt(drift.table.structural.rolling_crps, 4),
             support::fmt_pct(drift.table.structural.rolling_coverage)});
  t.add_row({"learned",
             support::fmt(drift.table.learned.rolling_crps, 4),
             support::fmt_pct(drift.table.learned.rolling_coverage)});
  t.add_row({"blended",
             support::fmt(drift.table.blended.rolling_crps, 4),
             support::fmt_pct(drift.table.blended.rolling_coverage)});
  std::printf("%s", t.render().c_str());
  std::printf("  serving source: %s (flip at trial %zu, drift at %zu)\n",
              learn::source_name(drift.table.serving), drift.flip_trial,
              kDriftAt);
  std::printf("  steady-state served coverage: %.1f%%\n",
              100.0 * drift.coverage_steady);

  bench::section("mixed-regime trace (factor alternates every " +
                 std::to_string(kMixedPeriod) + " trials)");
  const LoopResult mixed = run_mixed_loop();
  support::Table m({"candidate", "rolling CRPS"});
  m.add_row({"structural",
             support::fmt(mixed.table.structural.rolling_crps, 4)});
  m.add_row({"learned", support::fmt(mixed.table.learned.rolling_crps, 4)});
  m.add_row({"blended", support::fmt(mixed.table.blended.rolling_crps, 4)});
  std::printf("%s", m.render().c_str());
  std::printf("  serving source: %s\n",
              learn::source_name(mixed.table.serving));

  bench::section("determinism (drift loop re-run)");
  const LoopResult rerun = run_drift_loop();
  const bool deterministic =
      rerun.flip_trial == drift.flip_trial &&
      rerun.served_means == drift.served_means &&
      rerun.table.learned.rolling_crps == drift.table.learned.rolling_crps &&
      rerun.table.blend_weight == drift.table.blend_weight;
  std::printf("  re-run identical: %s\n", deterministic ? "yes" : "NO");

  const bool quiet_pre_drift = drift.flips_before_drift == 0;
  const bool flipped = drift.flip_trial > kDriftAt &&
                       drift.flip_trial <= kDriftAt + kFlipBound;
  const bool served_beats_stale = drift.table.learned.rolling_crps <
                                  drift.table.structural.rolling_crps;
  const bool coverage_restored = drift.coverage_steady >= 0.90;
  const bool blended_wins =
      mixed.table.blended.rolling_crps <
          mixed.table.structural.rolling_crps &&
      mixed.table.blended.rolling_crps < mixed.table.learned.rolling_crps;
  const bool pass = quiet_pre_drift && flipped && served_beats_stale &&
                    coverage_restored && blended_wins && deterministic;

  bench::section("verdict");
  std::printf("  quiet before drift:           %s\n",
              quiet_pre_drift ? "yes" : "NO");
  std::printf("  flipped within %3zu obs:       %s (trial %zu)\n", kFlipBound,
              flipped ? "yes" : "NO", drift.flip_trial);
  std::printf("  served CRPS beats stale:      %s\n",
              served_beats_stale ? "yes" : "NO");
  std::printf("  coverage restored >= 90%%:     %s (%.1f%%)\n",
              coverage_restored ? "yes" : "NO",
              100.0 * drift.coverage_steady);
  std::printf("  blended wins mixed regime:    %s\n",
              blended_wins ? "yes" : "NO");
  std::printf("  deterministic re-run:         %s\n",
              deterministic ? "yes" : "NO");
  std::printf("  => %s (BENCH_model_selection.json written)\n",
              pass ? "PASS" : "FAIL");

  emit_json(drift, mixed, deterministic, pass);
  return pass ? 0 : 1;
}
