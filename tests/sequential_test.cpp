// Tests for sequential stopping (stats/sequential.*) and the adaptive
// Monte-Carlo engine entry points (ir::Program::sample_adaptive and
// sample_adaptive_fused).
//
// Three contracts:
//   * statistical honesty — the CI reported at the stopping time covers
//     the true mean at ~the nominal z=2 rate (95.45%) on normal,
//     lognormal and trimodal generators, despite the optional stopping;
//   * determinism — a fixed seed reproduces the exact trial count, and
//     tightening the target never shrinks it;
//   * engine bit-exactness — a fixed-rule adaptive run is byte-identical
//     to sample_trials (values and RNG stream), and every lane of
//     sample_adaptive_fused is byte-identical to its solo adaptive run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "stats/sequential.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::stats {
namespace {

constexpr double kNominal = 0.9545;  // two-sided z = 2

/// Draws through the engine's own checkpoint schedule until the rule
/// stops, exactly as the blocked engine does between blocks.
struct StoppedRun {
  double mean = 0.0;
  double ci = 0.0;
  std::size_t count = 0;
};

StoppedRun run_sequential(const StopRule& rule,
                          const std::function<double()>& draw) {
  SequentialEstimator est(rule);
  std::vector<double> block;
  for (;;) {
    const std::size_t width = next_block_width(est.count(), rule, 1024);
    if (width == 0) break;
    block.resize(width);
    for (double& x : block) x = draw();
    est.merge(OnlineStats::from_block(block));
    if (est.should_stop()) break;
  }
  return {est.mean(), est.ci_halfwidth(), est.count()};
}

TEST(AdaptiveStop, FixedRuleIgnoresPrecisionAndRunsMaxTrials) {
  support::Rng rng(1);
  const StopRule rule = StopRule::fixed(777);
  EXPECT_LE(rule.target, 0.0);
  const StoppedRun run = run_sequential(rule, [&] { return rng.normal(); });
  EXPECT_EQ(run.count, 777u);
}

TEST(AdaptiveStop, PrecisionStopHonorsMinAndMaxClamps) {
  // A constant stream has zero variance: precision is met immediately,
  // but not before min_trials.
  StopRule rule = StopRule::absolute(0.1, 4096, 100);
  StoppedRun run = run_sequential(rule, [] { return 3.0; });
  EXPECT_EQ(run.count, 100u);

  // An impossible target runs to the max clamp.
  support::Rng rng(2);
  rule = StopRule::absolute(1e-12, 512, 64);
  run = run_sequential(rule, [&] { return rng.normal(); });
  EXPECT_EQ(run.count, 512u);
  SequentialEstimator est(rule);
  est.merge(OnlineStats::from_block(std::vector<double>{0.0, 1.0}));
  EXPECT_FALSE(est.precision_met());
}

TEST(AdaptiveStop, NextBlockWidthSchedules) {
  // Fixed rules: straight block_cap strides with a partial last block —
  // the sample_trials schedule.
  const StopRule fixed = StopRule::fixed(2500);
  EXPECT_EQ(next_block_width(0, fixed, 1024), 1024u);
  EXPECT_EQ(next_block_width(1024, fixed, 1024), 1024u);
  EXPECT_EQ(next_block_width(2048, fixed, 1024), 452u);
  EXPECT_EQ(next_block_width(2500, fixed, 1024), 0u);

  // Precision rules: doubling checkpoints from min_trials, then full
  // blocks, always clamped to max_trials.
  const StopRule prec = StopRule::absolute(0.01, 5000, 64);
  EXPECT_EQ(next_block_width(0, prec, 1024), 64u);
  EXPECT_EQ(next_block_width(64, prec, 1024), 64u);
  EXPECT_EQ(next_block_width(128, prec, 1024), 128u);
  EXPECT_EQ(next_block_width(512, prec, 1024), 512u);
  EXPECT_EQ(next_block_width(2048, prec, 1024), 1024u);
  EXPECT_EQ(next_block_width(4500, prec, 1024), 500u);
  EXPECT_EQ(next_block_width(5000, prec, 1024), 0u);
}

TEST(AdaptiveStop, DeterministicTrialCountUnderFixedSeed) {
  const StopRule rule = StopRule::absolute(0.05, 100'000, 64);
  std::vector<std::size_t> counts;
  for (int run = 0; run < 2; ++run) {
    support::Rng rng(99);
    const StoppedRun r =
        run_sequential(rule, [&] { return rng.lognormal(0.0, 0.8); });
    counts.push_back(r.count);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 64u);
  EXPECT_LT(counts[0], 100'000u);
}

TEST(AdaptiveStop, TrialCountIsMonotoneInTargetWidth) {
  std::size_t prev = 0;
  for (const double target : {0.2, 0.1, 0.05, 0.025}) {
    support::Rng rng(7);  // same stream for every target
    const StopRule rule = StopRule::absolute(target, 1'000'000, 64);
    const StoppedRun r =
        run_sequential(rule, [&] { return rng.normal(5.0, 1.0); });
    EXPECT_GE(r.count, prev) << "target " << target;
    prev = r.count;
  }
  EXPECT_GT(prev, 64u);  // the tightest target did real work
}

TEST(AdaptiveStop, StoppedCoverageWithinNominalAcrossGenerators) {
  struct Generator {
    const char* name;
    double true_mean;
    double target;
    std::function<double(support::Rng&)> draw;
  };
  const std::vector<Generator> generators = {
      {"normal", 5.0, 0.10,
       [](support::Rng& rng) { return rng.normal(5.0, 1.0); }},
      {"lognormal", std::exp(0.125), 0.06,
       [](support::Rng& rng) { return rng.lognormal(0.0, 0.5); }},
      {"trimodal", 0.5 * 1.0 + 0.3 * 2.0 + 0.2 * 4.0, 0.10,
       [](support::Rng& rng) {
         const double u = rng.uniform();
         if (u < 0.5) return rng.normal(1.0, 0.1);
         if (u < 0.8) return rng.normal(2.0, 0.15);
         return rng.normal(4.0, 0.2);
       }}};
  constexpr std::size_t kReps = 500;
  for (const Generator& g : generators) {
    const StopRule rule = StopRule::absolute(g.target, 200'000, 64);
    std::size_t covered = 0;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      support::Rng rng(0xC0FFEEu + 7919 * rep);
      const StoppedRun r =
          run_sequential(rule, [&] { return g.draw(rng); });
      EXPECT_LT(r.count, 200'000u) << g.name;  // target was reachable
      if (std::abs(r.mean - g.true_mean) <= r.ci) ++covered;
    }
    const double coverage = double(covered) / double(kReps);
    EXPECT_NEAR(coverage, kNominal, 0.03)
        << g.name << " stopped-CI coverage " << coverage;
  }
}

}  // namespace
}  // namespace sspred::stats

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::StochasticValue;

/// A small but operator-rich stochastic model: sum + quotient + product
/// over two parameters, nothing degenerate.
ir::Program test_program() {
  const auto expr = model::add(
      model::quotient(model::constant(StochasticValue(4.0)),
                      model::param("load")),
      model::mul(model::param("bw"),
                 model::constant(StochasticValue(1.0, 0.3))));
  return model::compile(*expr);
}

ir::SlotEnvironment bind_env(const ir::Program& prog, double load_mean,
                             double bw_mean) {
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("load"), StochasticValue(load_mean, 0.2));
  env.bind(prog.slot("bw"), StochasticValue(bw_mean, 0.1));
  return env;
}

TEST(AdaptiveEngine, FixedRuleBitExactAgainstSampleTrials) {
  const ir::Program prog = test_program();
  const ir::SlotEnvironment env = bind_env(prog, 0.8, 0.5);
  for (const std::size_t trials :
       {std::size_t{2}, std::size_t{37}, std::size_t{1024},
        std::size_t{2 * 1024 + 452}}) {
    support::Rng rng_a(42);
    support::Rng rng_b(42);
    ir::EvalWorkspace ws_a, ws_b;
    const ir::AdaptiveResult adaptive = prog.sample_adaptive(
        env, rng_a, stats::StopRule::fixed(trials), ws_a);
    const StochasticValue direct =
        prog.sample_trials(env, rng_b, trials, ws_b);
    EXPECT_EQ(adaptive.trials, trials);
    EXPECT_TRUE(adaptive.converged);
    EXPECT_DOUBLE_EQ(adaptive.value.mean(), direct.mean()) << trials;
    EXPECT_DOUBLE_EQ(adaptive.value.halfwidth(), direct.halfwidth())
        << trials;
    EXPECT_DOUBLE_EQ(rng_a.uniform(), rng_b.uniform())
        << trials << " rng state";
  }
}

TEST(AdaptiveEngine, PrecisionRunStopsEarlyAndMeetsTarget) {
  const ir::Program prog = test_program();
  const ir::SlotEnvironment env = bind_env(prog, 0.8, 0.5);
  support::Rng rng(7);
  const stats::StopRule rule = stats::StopRule::relative_width(0.05, 50'000);
  const ir::AdaptiveResult res = prog.sample_adaptive(env, rng, rule);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.trials, rule.min_trials);
  EXPECT_LT(res.trials, 50'000u);
  EXPECT_LE(res.ci_halfwidth, 0.05 * std::abs(res.value.mean()));
}

TEST(AdaptiveEngine, MaxClampReportsUnconverged) {
  const ir::Program prog = test_program();
  const ir::SlotEnvironment env = bind_env(prog, 0.8, 0.5);
  support::Rng rng(7);
  const ir::AdaptiveResult res = prog.sample_adaptive(
      env, rng, stats::StopRule::absolute(1e-12, 256, 64));
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.trials, 256u);
  EXPECT_GT(res.ci_halfwidth, 1e-12);
}

TEST(AdaptiveEngine, PointProgramShortCircuitsWithoutDraws) {
  const auto expr = model::add(model::constant(StochasticValue(2.0)),
                               model::constant(StochasticValue(3.0)));
  const ir::Program prog = model::compile(*expr);
  const ir::SlotEnvironment env = prog.make_environment();
  support::Rng rng(5);
  support::Rng untouched(5);
  const ir::AdaptiveResult res = prog.sample_adaptive(
      env, rng, stats::StopRule::relative_width(0.01, 10'000));
  EXPECT_DOUBLE_EQ(res.value.mean(), 5.0);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.trials, 0u);
  EXPECT_DOUBLE_EQ(rng.uniform(), untouched.uniform());
}

TEST(AdaptiveEngine, FusedLaneRetirementBitExactVsSolo) {
  // Mixed rules chosen so lanes retire at very different checkpoints:
  // easy relative targets, a hard absolute target that runs to its max
  // clamp, and fixed counts that must follow the sample_trials schedule.
  const ir::Program prog = test_program();
  const std::vector<stats::StopRule> rules = {
      stats::StopRule::relative_width(0.10, 20'000, 64),   // retires fast
      stats::StopRule::fixed(600),
      stats::StopRule::absolute(1e-9, 3'000, 64),          // clamps
      stats::StopRule::relative_width(0.02, 20'000, 128),  // mid
      stats::StopRule::fixed(2 * 1024 + 452),
  };
  const std::size_t lanes = rules.size();
  ir::LaneEnvironment fused = prog.make_lane_environment(lanes);
  std::vector<ir::SlotEnvironment> solos;
  std::vector<support::Rng> rngs;
  std::vector<support::Rng> solo_rngs;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double load = 0.6 + 0.05 * double(k);
    const double bw = 0.4 + 0.03 * double(k);
    fused.bind(k, prog.slot("load"), StochasticValue(load, 0.2));
    fused.bind(k, prog.slot("bw"), StochasticValue(bw, 0.1));
    solos.push_back(bind_env(prog, load, bw));
    rngs.emplace_back(900 + 31 * k);
    solo_rngs.emplace_back(900 + 31 * k);
  }
  ir::EvalWorkspace ws, solo_ws;
  std::vector<ir::AdaptiveResult> out(lanes);
  prog.sample_adaptive_fused(fused, rngs, rules, ws, out);
  for (std::size_t k = 0; k < lanes; ++k) {
    const ir::AdaptiveResult solo =
        prog.sample_adaptive(solos[k], solo_rngs[k], rules[k], solo_ws);
    EXPECT_EQ(out[k].trials, solo.trials) << "lane " << k;
    EXPECT_EQ(out[k].converged, solo.converged) << "lane " << k;
    EXPECT_DOUBLE_EQ(out[k].value.mean(), solo.value.mean()) << "lane " << k;
    EXPECT_DOUBLE_EQ(out[k].value.halfwidth(), solo.value.halfwidth())
        << "lane " << k;
    EXPECT_DOUBLE_EQ(out[k].ci_halfwidth, solo.ci_halfwidth) << "lane " << k;
    EXPECT_DOUBLE_EQ(rngs[k].uniform(), solo_rngs[k].uniform())
        << "lane " << k << " rng state";
  }
  // The clamped lane really did clamp and the easy lane really retired.
  EXPECT_EQ(out[2].trials, 3'000u);
  EXPECT_FALSE(out[2].converged);
  EXPECT_LT(out[0].trials, out[2].trials);
}

}  // namespace
}  // namespace sspred::model
