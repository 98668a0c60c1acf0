// Blocked Monte-Carlo engine against the Expr tree sampler
// (self-checking).
//
// Sweeps trial counts (1k / 10k / 100k) and model sizes (a
// handful-of-nodes expression, the Platform-2 SOR structural model, and a
// 16-host wide SOR), timing the compiled program's blocked trial-major
// engine (sample_trials: SoA batch kernels plus the ziggurat batch
// sampler) against the authoring tree's per-trial Expr::sample walk over a
// string-keyed Environment, summarized the same way. The tree sampler is
// the reference the engine's distribution is tested against. Numbers land
// in BENCH_mc_engine.json.
//
// Self-check: in optimized builds the blocked engine must be at least
// kSpeedupFloor x faster than the tree sampler on the 10k-trial SOR model;
// the process exits non-zero otherwise. The floor is as strict as the
// earlier 4x floor against the compiled per-trial walk this bench used to
// time: the tree took 2.06-2.55x that walk's time on this model (14
// rounds, Release, 4-vCPU host), and 4 x 2.55 = 10.2. Unoptimized builds
// report but do not assert — their timings are noise.
//
// Timing uses bench::measure_until (bench/measure.*): warm-up-trimmed,
// autocorrelation-corrected, CI-driven run length instead of the old
// hand-picked best-of-3 reps. One measurement's CI understates the spread
// between runs, so the gate case is also timed in kRounds interleaved
// rounds (tree, blocked, and the block prologue's slot fills alone, in
// turn), which record the speedup of every round (min/median/max) and
// split the blocked time into slot fill and walk + summary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "measure.hpp"
#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "predict/sor_model.hpp"
#include "stats/descriptive.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;
using stoch::StochasticValue;

constexpr double kSpeedupFloor = 10.2;
constexpr const char* kGateModel = "sor-p2";
constexpr std::size_t kGateTrials = 10'000;
constexpr std::size_t kRounds = 5;
constexpr std::size_t kTrialCounts[] = {1'000, 10'000, 100'000};
// Every measurement samples this many trials in total (small counts loop
// more), so short calls still time a >= millisecond region.
constexpr std::size_t kTrialsPerMeasurement = 100'000;

struct Case {
  std::string name;
  model::ExprPtr expr;
  model::Environment tree_env;
  model::ir::Program program;
  model::ir::SlotEnvironment env;
  std::size_t nodes = 0;
};

/// Compiles `expr` and binds the program's slots from `tree_env`, so both
/// samplers see the same model and bindings.
Case make_case(std::string name, model::ExprPtr expr,
               model::Environment tree_env) {
  model::ir::Program prog = model::compile(*expr);
  model::ir::SlotEnvironment env = model::bind_environment(prog, tree_env);
  const std::size_t nodes = prog.node_count();
  return {std::move(name), std::move(expr), std::move(tree_env),
          std::move(prog), std::move(env), nodes};
}

Case small_case() {
  // ExTime = work / load + const overhead: the calibration demo's model,
  // a few nodes — dominated by the per-trial draw cost.
  const auto expr = model::add(
      model::quotient(model::constant(StochasticValue(4.0)),
                      model::param("load")),
      model::constant(StochasticValue(0.2, 0.04)));
  model::Environment tree_env;
  tree_env.bind("load", StochasticValue(0.8, 0.15));
  return make_case("small-expr", expr, std::move(tree_env));
}

Case sor_case(const std::string& name, const cluster::PlatformSpec& platform,
              std::size_t n, std::size_t iterations) {
  sor::SorConfig cfg;
  cfg.n = n;
  cfg.iterations = iterations;
  const predict::StructuralModel model(predict::author_sor(platform, cfg));
  const std::vector<StochasticValue> loads(platform.hosts.size(),
                                           StochasticValue(0.62, 0.08));
  return make_case(name, model.expr(),
                   model.make_env(loads, StochasticValue(0.525, 0.06)));
}

/// Seconds per call of `run` (one `trials`-trial estimate): CI-driven
/// repetition over inner loops sized to kTrialsPerMeasurement, with
/// warm-up removal and ESS correction done by bench::measure_until.
template <typename Run>
bench::Measurement measure(std::size_t trials, Run&& run) {
  const std::size_t inner =
      std::max<std::size_t>(1, kTrialsPerMeasurement / trials);
  bench::MeasureOptions options;
  options.rel_precision = 0.03;
  options.min_samples = 5;
  options.max_samples = 40;
  options.max_seconds = 1.5;
  return bench::measure_until(
      [&] {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < inner; ++i) run();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        return dt.count() / static_cast<double>(inner);
      },
      options);
}

/// The blocked engine: sample_trials() on a reused workspace.
bench::Measurement measure_blocked(const Case& c, std::size_t trials) {
  support::Rng rng(20260806);
  model::ir::EvalWorkspace ws;
  return measure(trials, [&] {
    (void)c.program.sample_trials(c.env, rng, trials, ws);
  });
}

/// The tree sampler: `trials` Expr::sample() walks, each on a fresh
/// per-trial cache, summarized like sample_trials().
bench::Measurement measure_tree(const Case& c, std::size_t trials) {
  support::Rng rng(20260806);
  model::SampleCache cache;
  std::vector<double> outcomes;
  outcomes.reserve(trials);
  return measure(trials, [&] {
    outcomes.clear();
    for (std::size_t t = 0; t < trials; ++t) {
      cache.clear();
      outcomes.push_back(c.expr->sample(c.tree_env, cache, rng));
    }
    (void)StochasticValue::from_sample(outcomes);
  });
}

/// The blocked engine's slot prologue alone: per block, one batched draw
/// per live slot (the fills sample_trials makes before each walk), into a
/// scratch row.
bench::Measurement measure_slot_fill(const Case& c, std::size_t trials) {
  support::Rng rng(20260806);
  std::vector<double> row(model::ir::kBlockTrials);
  return measure(trials, [&] {
    for (std::size_t done = 0; done < trials;) {
      const std::size_t lanes =
          std::min(model::ir::kBlockTrials, trials - done);
      for (const std::uint32_t s : c.program.live_slots()) {
        const StochasticValue& v = c.env.lookup(s);
        if (v.is_point()) {
          std::fill_n(row.begin(), lanes, v.mean());
        } else {
          rng.normal_fill({row.data(), lanes}, v.mean(), v.sd());
        }
      }
      done += lanes;
    }
  });
}

/// kRounds interleaved rounds of the gate case.
struct Rounds {
  std::vector<double> speedups;     ///< tree / blocked, per round
  std::vector<double> blocked_s;    ///< per round
  std::vector<double> slot_fill_s;  ///< per round
};

Rounds measure_rounds(const Case& c, std::size_t trials) {
  Rounds r;
  for (std::size_t i = 0; i < kRounds; ++i) {
    const double tree = measure_tree(c, trials).mean;
    const double blocked = measure_blocked(c, trials).mean;
    r.speedups.push_back(tree / blocked);
    r.blocked_s.push_back(blocked);
    r.slot_fill_s.push_back(measure_slot_fill(c, trials).mean);
  }
  return r;
}

struct Row {
  std::string model;
  std::size_t nodes = 0;
  std::size_t trials = 0;
  double tree_s = 0.0;
  double blocked_s = 0.0;
  double tree_ci = 0.0;     ///< CI half-width on tree_s
  double blocked_ci = 0.0;  ///< CI half-width on blocked_s
  [[nodiscard]] double speedup() const { return tree_s / blocked_s; }
  [[nodiscard]] double blocked_trials_per_s() const {
    return static_cast<double>(trials) / blocked_s;
  }
};

void emit_json(const std::vector<Row>& rows, const Rounds& rounds,
               double gate_speedup, bool pass) {
  std::ofstream out("BENCH_mc_engine.json");
  out.precision(6);
  out << "{\n"
      << "  \"artifact\": \"bench_mc_engine\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"optimized_build\": " << (bench::optimized_build() ? "true" : "false")
      << ",\n"
      << "  \"speedup_floor\": " << kSpeedupFloor << ",\n"
      << "  \"gate\": \"sor-p2 @ 10000 trials\",\n"
      << "  \"gate_speedup\": " << gate_speedup << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  const auto [lo, hi] =
      std::minmax_element(rounds.speedups.begin(), rounds.speedups.end());
  const double blocked = stats::median(rounds.blocked_s);
  const double fill = stats::median(rounds.slot_fill_s);
  out << "  \"gate_rounds\": {\"count\": " << rounds.speedups.size()
      << ", \"speedup_min\": " << *lo
      << ", \"speedup_median\": " << stats::median(rounds.speedups)
      << ", \"speedup_max\": " << *hi << ", \"speedups\": [";
  for (std::size_t i = 0; i < rounds.speedups.size(); ++i) {
    out << (i > 0 ? ", " : "") << rounds.speedups[i];
  }
  out << "], \"blocked_sec_median\": " << blocked
      << ", \"slot_fill_sec_median\": " << fill
      << ", \"walk_summary_sec_median\": " << blocked - fill << "},\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"nodes\": " << r.nodes
        << ", \"trials\": " << r.trials << ", \"tree_sec\": " << r.tree_s
        << ", \"tree_ci_sec\": " << r.tree_ci
        << ", \"blocked_sec\": " << r.blocked_s
        << ", \"blocked_ci_sec\": " << r.blocked_ci
        << ", \"speedup\": " << r.speedup()
        << ", \"blocked_trials_per_sec\": " << r.blocked_trials_per_s() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  bench::banner("mc engine: blocked vs tree",
                "trial-major SoA batch kernels + ziggurat sampler "
                "(model/ir.cpp) vs the per-trial Expr::sample walk");

  std::vector<Case> cases;
  cases.push_back(small_case());
  cases.push_back(sor_case("sor-p2", cluster::platform2(), 600, 20));
  cases.push_back(sor_case("sor-wide16", cluster::dedicated_platform(16),
                           1'000, 30));

  std::vector<Row> rows;
  double gate_speedup = 0.0;
  for (const Case& c : cases) {
    bench::section(c.name + " (" + std::to_string(c.nodes) + " IR nodes)");
    support::Table t({"trials", "tree", "blocked", "speedup", "blocked trials/s"});
    for (const std::size_t trials : kTrialCounts) {
      Row r;
      r.model = c.name;
      r.nodes = c.nodes;
      r.trials = trials;
      const bench::Measurement tree = measure_tree(c, trials);
      const bench::Measurement blocked = measure_blocked(c, trials);
      r.tree_s = tree.mean;
      r.blocked_s = blocked.mean;
      r.tree_ci = tree.ci_halfwidth;
      r.blocked_ci = blocked.ci_halfwidth;
      if (c.name == kGateModel && trials == kGateTrials) {
        gate_speedup = r.speedup();
      }
      t.add_row({std::to_string(trials),
                 support::fmt(r.tree_s * 1e3, 2) + " ms",
                 support::fmt(r.blocked_s * 1e3, 2) + " ms ±" +
                     support::fmt(100.0 * r.blocked_ci /
                                      std::max(r.blocked_s, 1e-300), 1) + "%",
                 support::fmt(r.speedup(), 2) + "x",
                 support::fmt(r.blocked_trials_per_s() / 1e6, 2) + "M"});
      rows.push_back(r);
    }
    std::printf("%s", t.render().c_str());
  }

  bench::section(std::string(kGateModel) + " @ 10k trials, " +
                 std::to_string(kRounds) + " interleaved rounds");
  const auto gate_case =
      std::find_if(cases.begin(), cases.end(),
                   [](const Case& c) { return c.name == kGateModel; });
  const Rounds rounds = measure_rounds(*gate_case, kGateTrials);
  {
    support::Table t({"round", "speedup", "blocked", "slot fill",
                      "walk + summary"});
    for (std::size_t i = 0; i < kRounds; ++i) {
      const double blocked = rounds.blocked_s[i];
      const double fill = rounds.slot_fill_s[i];
      t.add_row({std::to_string(i + 1),
                 support::fmt(rounds.speedups[i], 2) + "x",
                 support::fmt(blocked * 1e3, 3) + " ms",
                 support::fmt(fill * 1e3, 3) + " ms",
                 support::fmt((blocked - fill) * 1e3, 3) + " ms"});
    }
    std::printf("%s", t.render().c_str());
  }

  bench::section("verdict");
  const bool gate_met = gate_speedup >= kSpeedupFloor;
  // Only optimized builds assert: debug/sanitizer timings say nothing
  // about the engine (the JSON still records which build produced it).
  const bool pass = gate_met || !bench::optimized_build();
  std::printf("  gate: sor-p2 @ 10k trials, blocked >= %.1fx tree\n",
              kSpeedupFloor);
  std::printf("  measured: %.2fx (%s build)\n", gate_speedup,
              bench::build_type());
  if (!bench::optimized_build()) {
    std::printf("  unoptimized build: reporting only, floor not asserted\n");
  }
  std::printf("  => %s (BENCH_mc_engine.json written)\n",
              pass ? "PASS" : "FAIL");

  emit_json(rows, rounds, gate_speedup, pass);
  return pass ? 0 : 1;
}
