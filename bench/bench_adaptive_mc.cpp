// Adaptive-precision Monte-Carlo headline artifact (self-checking).
//
// A mixed easy/hard model suite is evaluated two ways at the SAME
// worst-case precision target: a fixed trial budget sized for the
// hardest model (kFixedTrials = 2000, the pre-ISSUE-10 default), and
// the sequential stopping rule (stats::StopRule::relative_width via
// ir::Program::sample_adaptive), which spends trials where the model's
// variance actually demands them. Results land in BENCH_adaptive_mc.json.
//
// Three gates, all deterministic (fixed seeds), all asserted in every
// build type — nothing here is a timing:
//   1. savings:   mean over models of fixed/adaptive trial counts
//                 >= kReductionFloor (2x) at equal CI width,
//   2. coverage:  over kCoverageReps independent adaptive runs per
//                 model, the fraction whose reported CI covers a
//                 2^20-trial reference mean is within
//                 kCoverageTolerancePts of the z=2 nominal 95.45%,
//   3. determinism: re-running the adaptive pass with the same seeds
//                 reproduces the exact trial-count vector and means.
// Wall-clock suite times (adaptive vs fixed) are reported but never
// asserted.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "predict/sor_model.hpp"
#include "stats/sequential.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;
using stoch::StochasticValue;

constexpr std::size_t kFixedTrials = 2'000;
constexpr std::size_t kMinTrials = 128;
constexpr std::size_t kMaxTrials = 32'768;
constexpr std::size_t kReferenceTrials = std::size_t{1} << 20;
constexpr std::size_t kCoverageReps = 400;
constexpr double kNominalCoverage = 0.9545;  // z = 2
constexpr double kCoverageTolerancePts = 2.0;
constexpr double kReductionFloor = 2.0;
constexpr std::uint64_t kSeed = 20260808;

struct Case {
  std::string name;
  model::ir::Program program;
  model::ir::SlotEnvironment env;
  std::size_t nodes = 0;
};

Case sor_case(const std::string& name, const StochasticValue& load,
              const StochasticValue& bandwidth) {
  sor::SorConfig cfg;
  cfg.n = 600;
  cfg.iterations = 20;
  const cluster::PlatformSpec platform = cluster::platform2();
  const predict::StructuralModel model(predict::author_sor(platform, cfg));
  const std::vector<StochasticValue> loads(platform.hosts.size(), load);
  model::ir::Program prog = model.program();
  model::ir::SlotEnvironment env = model.make_slot_env(loads, bandwidth);
  const std::size_t nodes = prog.node_count();
  return {name, std::move(prog), std::move(env), nodes};
}

Case overhead_case() {
  // work / load + overhead with a noisy load: moderate relative spread.
  const auto expr = model::add(
      model::quotient(model::constant(StochasticValue(4.0)),
                      model::param("load")),
      model::constant(StochasticValue(0.2, 0.04)));
  model::ir::Program prog = model::compile(*expr);
  model::ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("load"), StochasticValue(0.8, 0.3));
  const std::size_t nodes = prog.node_count();
  return {"overhead-mix", std::move(prog), std::move(env), nodes};
}

Case longtail_case() {
  // Product of two wide factors (cv 0.3 each): the right-skewed,
  // high-variance model that sizes the fixed budget for everyone else.
  const auto expr =
      model::mul(model::mul(model::constant(StochasticValue(1.0, 0.6)),
                            model::constant(StochasticValue(1.0, 0.6))),
                 model::constant(StochasticValue(5.0)));
  model::ir::Program prog = model::compile(*expr);
  model::ir::SlotEnvironment env = prog.make_environment();
  const std::size_t nodes = prog.node_count();
  return {"longtail-prod", std::move(prog), std::move(env), nodes};
}

struct Row {
  std::string model;
  std::size_t nodes = 0;
  double fixed_rel_width = 0.0;     ///< fixed-2000 achieved CI (relative)
  std::size_t adaptive_trials = 0;  ///< trials the stop rule spent
  double adaptive_rel_width = 0.0;  ///< adaptive achieved CI (relative)
  std::size_t covered = 0;          ///< coverage successes
  [[nodiscard]] double reduction() const {
    return static_cast<double>(kFixedTrials) /
           static_cast<double>(adaptive_trials);
  }
  [[nodiscard]] double coverage() const {
    return static_cast<double>(covered) / static_cast<double>(kCoverageReps);
  }
};

/// Achieved relative CI half-width of an n-trial fixed run (z = 2):
/// (halfwidth / sqrt(n)) / |mean|, matching the serve-layer stamp.
double fixed_rel_width(const StochasticValue& v, std::size_t n) {
  return (v.halfwidth() / std::sqrt(static_cast<double>(n))) /
         std::abs(v.mean());
}

void emit_json(const std::vector<Row>& rows, double target_rel,
               double mean_reduction, double pooled_coverage,
               bool deterministic, double fixed_suite_s,
               double adaptive_suite_s, bool pass) {
  std::ofstream out("BENCH_adaptive_mc.json");
  out.precision(6);
  out << "{\n"
      << "  \"artifact\": \"bench_adaptive_mc\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"fixed_trials\": " << kFixedTrials << ",\n"
      << "  \"target_rel_width\": " << target_rel << ",\n"
      << "  \"reduction_floor\": " << kReductionFloor << ",\n"
      << "  \"mean_reduction\": " << mean_reduction << ",\n"
      << "  \"nominal_coverage\": " << kNominalCoverage << ",\n"
      << "  \"coverage_tolerance_pts\": " << kCoverageTolerancePts << ",\n"
      << "  \"coverage_reps_per_model\": " << kCoverageReps << ",\n"
      << "  \"pooled_coverage\": " << pooled_coverage << ",\n"
      << "  \"deterministic_trial_counts\": "
      << (deterministic ? "true" : "false") << ",\n"
      << "  \"fixed_suite_sec\": " << fixed_suite_s << ",\n"
      << "  \"adaptive_suite_sec\": " << adaptive_suite_s << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"nodes\": " << r.nodes
        << ", \"fixed_trials\": " << kFixedTrials
        << ", \"fixed_rel_width\": " << r.fixed_rel_width
        << ", \"adaptive_trials\": " << r.adaptive_trials
        << ", \"adaptive_rel_width\": " << r.adaptive_rel_width
        << ", \"reduction\": " << r.reduction()
        << ", \"coverage\": " << r.coverage() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  bench::banner("adaptive mc: sequential stopping vs fixed budget",
                "stats::StopRule-driven sample_adaptive at the suite's "
                "worst-case precision target vs a fixed 2000-trial budget");

  std::vector<Case> cases;
  cases.push_back(sor_case("sor-tight", StochasticValue(0.62, 0.02),
                           StochasticValue(0.525, 0.01)));
  cases.push_back(sor_case("sor-base", StochasticValue(0.62, 0.08),
                           StochasticValue(0.525, 0.06)));
  cases.push_back(sor_case("sor-wide", StochasticValue(0.60, 0.20),
                           StochasticValue(0.50, 0.10)));
  cases.push_back(overhead_case());
  cases.push_back(longtail_case());

  std::vector<Row> rows(cases.size());
  model::ir::EvalWorkspace ws;

  // -- Calibration: the fixed-2000 budget was sized for the hardest
  // model, so the suite-wide precision target is the WORST fixed-2000
  // achieved relative CI width. Every adaptive run must hit that same
  // width; easy models get there in far fewer trials.
  double target_rel = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    support::Rng rng(kSeed + i);
    const StochasticValue v =
        cases[i].program.sample_trials(cases[i].env, rng, kFixedTrials, ws);
    rows[i].model = cases[i].name;
    rows[i].nodes = cases[i].nodes;
    rows[i].fixed_rel_width = fixed_rel_width(v, kFixedTrials);
    target_rel = std::max(target_rel, rows[i].fixed_rel_width);
  }
  const stats::StopRule rule =
      stats::StopRule::relative_width(target_rel, kMaxTrials, kMinTrials);

  bench::section("adaptive runs @ shared target (CI/|mean| <= " +
                 support::fmt(100.0 * target_rel, 2) + "%)");
  support::Table t({"model", "nodes", "fixed CI", "adaptive CI",
                    "trials", "reduction", "coverage"});

  // -- Headline adaptive pass (+ identical-seed rerun for gate 3).
  std::vector<std::size_t> trials_a(cases.size()), trials_b(cases.size());
  std::vector<double> means_a(cases.size()), means_b(cases.size());
  for (int pass_idx = 0; pass_idx < 2; ++pass_idx) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      support::Rng rng(kSeed + 500 + i);
      const model::ir::AdaptiveResult res =
          cases[i].program.sample_adaptive(cases[i].env, rng, rule, ws);
      (pass_idx == 0 ? trials_a : trials_b)[i] = res.trials;
      (pass_idx == 0 ? means_a : means_b)[i] = res.value.mean();
      if (pass_idx == 0) {
        rows[i].adaptive_trials = res.trials;
        rows[i].adaptive_rel_width =
            res.ci_halfwidth / std::abs(res.value.mean());
      }
    }
  }
  const bool deterministic = trials_a == trials_b && means_a == means_b;

  // -- Coverage: does the reported CI actually contain the truth at the
  // nominal rate? Truth is a 2^20-trial reference mean; each rep is an
  // independent adaptive run under the shared rule.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    support::Rng ref_rng(kSeed + 900 + i);
    const double truth =
        cases[i]
            .program.sample_trials(cases[i].env, ref_rng, kReferenceTrials, ws)
            .mean();
    for (std::size_t rep = 0; rep < kCoverageReps; ++rep) {
      support::Rng rng(0x9E3779B97F4A7C15ULL ^ (kSeed + i * 1'000'003 + rep));
      const model::ir::AdaptiveResult res =
          cases[i].program.sample_adaptive(cases[i].env, rng, rule, ws);
      if (std::abs(res.value.mean() - truth) <= res.ci_halfwidth) {
        ++rows[i].covered;
      }
    }
  }

  // -- Wall-clock comparison, report-only: what the savings buy in time.
  double fixed_suite_s = 0.0;
  double adaptive_suite_s = 0.0;
  {
    constexpr std::size_t kTimeReps = 50;
    support::Rng rng(kSeed + 1'700);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kTimeReps; ++rep) {
      for (const Case& c : cases) {
        (void)c.program.sample_trials(c.env, rng, kFixedTrials, ws);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kTimeReps; ++rep) {
      for (const Case& c : cases) {
        (void)c.program.sample_adaptive(c.env, rng, rule, ws);
      }
    }
    const auto t2 = std::chrono::steady_clock::now();
    fixed_suite_s =
        std::chrono::duration<double>(t1 - t0).count() / kTimeReps;
    adaptive_suite_s =
        std::chrono::duration<double>(t2 - t1).count() / kTimeReps;
  }

  std::size_t covered_total = 0;
  double reduction_sum = 0.0;
  for (const Row& r : rows) {
    covered_total += r.covered;
    reduction_sum += r.reduction();
    t.add_row({r.model, std::to_string(r.nodes),
               "±" + support::fmt(100.0 * r.fixed_rel_width, 2) + "%",
               "±" + support::fmt(100.0 * r.adaptive_rel_width, 2) + "%",
               std::to_string(r.adaptive_trials),
               support::fmt(r.reduction(), 1) + "x",
               support::fmt(100.0 * r.coverage(), 1) + "%"});
  }
  std::printf("%s", t.render().c_str());

  const double mean_reduction = reduction_sum / static_cast<double>(rows.size());
  const double pooled_coverage =
      static_cast<double>(covered_total) /
      static_cast<double>(rows.size() * kCoverageReps);
  const double coverage_err_pts =
      100.0 * std::abs(pooled_coverage - kNominalCoverage);

  bench::section("verdict");
  const bool savings_ok = mean_reduction >= kReductionFloor;
  const bool coverage_ok = coverage_err_pts <= kCoverageTolerancePts;
  const bool pass = savings_ok && coverage_ok && deterministic;
  std::printf("  mean trial reduction: %.1fx (floor %.1fx) %s\n",
              mean_reduction, kReductionFloor, savings_ok ? "ok" : "FAIL");
  std::printf("  pooled coverage: %.2f%% (nominal %.2f%%, |err| %.2fpt <= "
              "%.1fpt) %s\n",
              100.0 * pooled_coverage, 100.0 * kNominalCoverage,
              coverage_err_pts, kCoverageTolerancePts,
              coverage_ok ? "ok" : "FAIL");
  std::printf("  same-seed rerun: trial counts %s\n",
              deterministic ? "identical (ok)" : "DIFFER (FAIL)");
  std::printf("  suite wall-clock: fixed %.2fms, adaptive %.2fms (%.1fx, "
              "report-only)\n",
              fixed_suite_s * 1e3, adaptive_suite_s * 1e3,
              fixed_suite_s / adaptive_suite_s);
  std::printf("  => %s (BENCH_adaptive_mc.json written)\n",
              pass ? "PASS" : "FAIL");

  emit_json(rows, target_rel, mean_reduction, pooled_coverage, deterministic,
            fixed_suite_s, adaptive_suite_s, pass);
  return pass ? 0 : 1;
}
