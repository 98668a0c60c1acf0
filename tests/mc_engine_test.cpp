// Tests for the blocked trial-major Monte-Carlo engine (model/ir.hpp),
// the ziggurat batch sampler behind it (support/rng.hpp), and the IR
// optimization pipeline (model/compile.hpp).
//
// The blocked RNG stream (documented at ir::kBlockTrials) is a versioned
// determinism contract with two halves. The values of the ziggurat
// itself are pinned against a test-local reference ziggurat (the table
// recurrence plus the accept/reject loop, written over Rng's public raw
// stream), which normal_fill and normal_ziggurat must match bit for bit.
// The draw order is pinned by golden tests that REPLAY it by hand — per
// block: every live parameter slot in ascending slot-id order, then the
// node-major walk (stochastic constants per occurrence, kRef nodes
// re-running their region unless it draws nothing, unrelated iterate
// repetitions redrawing their body slots per repetition) — and require
// sample_into() to match bit for bit. The replays call normal_fill on
// both sides, so they catch a change to the block size or the draw order
// but not to the ziggurat's values; the reference test catches that. Either failing means the contract must be bumped. What
// the engine draws is checked against the Expr tree sampler statistically
// (here and on random DAGs in compile_test.cpp, which also pins goldens of
// the served outputs). How blocks reduce to the served mean ± 2sd is the
// second contract at ir::kBlockTrials: the precision-stop replay merges
// block moments by hand, and McEngineSummary checks them against a
// long double reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "sample_agreement.hpp"
#include "stats/descriptive.hpp"
#include "stats/sequential.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::ExtremePolicy;
using stoch::StochasticValue;

// ---------------------------------------------------------------------------
// Ziggurat sampler.

TEST(ZigguratSampler, StreamIsDeterministicPerSeed) {
  support::Rng a(2026), b(2026), c(2027);
  std::vector<double> xa(257), xb(257), xc(257);
  a.normal_fill(xa);
  b.normal_fill(xb);
  c.normal_fill(xc);
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
}

TEST(ZigguratSampler, FillAppliesMeanAndSdAffinely) {
  support::Rng a(7), b(7);
  std::vector<double> std_draws(64), scaled(64);
  a.normal_fill(std_draws);
  b.normal_fill(scaled, 5.0, 0.25);
  for (std::size_t i = 0; i < std_draws.size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled[i], 5.0 + 0.25 * std_draws[i]) << "draw " << i;
  }
}

TEST(ZigguratSampler, MomentsAndCoverageMatchTheStandardNormal) {
  support::Rng rng(123456);
  constexpr std::size_t kN = 200'000;
  std::vector<double> xs(kN);
  rng.normal_fill(xs);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t within_1 = 0, within_2 = 0, tail = 0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
    within_1 += std::abs(x) <= 1.0 ? 1 : 0;
    within_2 += std::abs(x) <= 2.0 ? 1 : 0;
    // Beyond the ziggurat's base strip boundary: exercises the tail branch.
    tail += std::abs(x) > 3.442619855899 ? 1 : 0;
  }
  const double n = static_cast<double>(kN);
  const double mean = sum / n;
  const double sd = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(sd, 1.0, 0.01);
  EXPECT_NEAR(static_cast<double>(within_1) / n, 0.682689, 0.005);
  EXPECT_NEAR(static_cast<double>(within_2) / n, 0.954500, 0.003);
  // P(|Z| > 3.4426) ~ 5.75e-4, so ~115 of 200k; the branch must be live.
  EXPECT_GT(tail, 0u);
  EXPECT_LT(tail, 400u);
}

TEST(ZigguratSampler, DoesNotDisturbThePolarSpare) {
  // normal_ziggurat() consumes raw 64-bit words directly and never
  // touches normal()'s cached spare: polar draws generate values in
  // pairs, and the second of a pair must survive ziggurat draws spliced
  // in between.
  support::Rng plain(99), mixed(99);
  const double p1 = plain.normal();
  const double p2 = plain.normal();  // served from the cached spare
  const double m1 = mixed.normal();
  (void)mixed.normal_ziggurat();
  std::vector<double> z(9);
  mixed.normal_fill(z);
  const double m2 = mixed.normal();  // must still be the cached spare
  EXPECT_DOUBLE_EQ(p1, m1);
  EXPECT_DOUBLE_EQ(p2, m2);
}

/// Marsaglia & Tsang's 128-strip ziggurat with 53-bit tables, rebuilt
/// from the closed-form recurrence and run over Rng's public raw stream
/// (operator()) and uniform(). Counts the slow branches it takes so the
/// test can show they were exercised.
class ReferenceZiggurat {
 public:
  ReferenceZiggurat() {
    constexpr double m1 = 9007199254740992.0;  // 2^53
    const double vn = 9.91256303526217e-3;
    double dn = kR;
    double tn = dn;
    const double q = vn / std::exp(-0.5 * dn * dn);
    kn_[0] = static_cast<std::uint64_t>((dn / q) * m1);
    kn_[1] = 0;
    wn_[0] = q / m1;
    wn_[127] = dn / m1;
    fn_[0] = 1.0;
    fn_[127] = std::exp(-0.5 * dn * dn);
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn_[i + 1] = static_cast<std::uint64_t>((dn / tn) * m1);
      tn = dn;
      fn_[i] = std::exp(-0.5 * dn * dn);
      wn_[i] = dn / m1;
    }
  }

  double draw(support::Rng& rng) {
    for (;;) {
      const std::uint64_t bits = rng();
      const std::size_t i = bits & 127;
      const std::int64_t hz = static_cast<std::int64_t>(bits) >> 10;
      const auto az = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
      if (az < kn_[i]) return static_cast<double>(hz) * wn_[i];
      if (i == 0) {
        ++tails;
        double x = 0.0;
        double y = 0.0;
        do {
          x = -std::log(1.0 - rng.uniform()) / kR;
          y = -std::log(1.0 - rng.uniform());
        } while (y + y < x * x);
        return hz >= 0 ? kR + x : -(kR + x);
      }
      const double x = static_cast<double>(hz) * wn_[i];
      if (fn_[i] + rng.uniform() * (fn_[i - 1] - fn_[i]) <
          std::exp(-0.5 * x * x)) {
        return x;
      }
      ++wedge_rejections;
    }
  }

  std::size_t tails = 0;             ///< base-strip draws sent to the tail
  std::size_t wedge_rejections = 0;  ///< wedge draws rejected and redrawn

 private:
  static constexpr double kR = 3.442619855899;
  std::uint64_t kn_[128] = {};
  double wn_[128] = {};
  double fn_[128] = {};
};

TEST(ZigguratSampler, FillAndSingleDrawsMatchTheReferenceBitForBit) {
  ReferenceZiggurat reference;
  support::Rng rng(20261017), replay(20261017);
  std::vector<std::size_t> widths(1024);
  std::iota(widths.begin(), widths.end(), std::size_t{1});
  widths.push_back(4096);
  std::vector<double> got(4096);
  for (const std::size_t w : widths) {
    // Odd widths use the standard normal, even ones an affine map, so
    // the fill's mean + sd * z is pinned too.
    const double mean = w % 2 == 0 ? -1.25 : 0.0;
    const double sd = w % 2 == 0 ? 0.3 : 1.0;
    rng.normal_fill({got.data(), w}, mean, sd);
    for (std::size_t k = 0; k < w; ++k) {
      const double want = mean + sd * reference.draw(replay);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want))
          << "width " << w << ", value " << k << ": " << got[k]
          << " != " << want;
    }
    ASSERT_EQ(rng(), replay()) << "raw draw after width " << w;
  }
  const std::size_t fill_tails = reference.tails;
  const std::size_t fill_rejections = reference.wedge_rejections;
  EXPECT_GT(fill_tails, 0u);
  EXPECT_GT(fill_rejections, 0u);

  for (int k = 0; k < 200'000; ++k) {
    const double want = reference.draw(replay);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal_ziggurat()),
              std::bit_cast<std::uint64_t>(want))
        << "single draw " << k;
  }
  EXPECT_EQ(rng(), replay()) << "raw draw after the single draws";
  EXPECT_GT(reference.tails, fill_tails);
  EXPECT_GT(reference.wedge_rejections, fill_rejections);
}

// ---------------------------------------------------------------------------
// Blocked-engine golden replay: the documented kBlocked draw order,
// executed by hand against a second identically-seeded Rng.

TEST(McEngineBlocked, StreamMatchesDocumentedDrawOrderAcrossBlocks) {
  const auto expr =
      add(param("x"), constant(StochasticValue(2.0, 0.5)));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(0.8, 0.2));

  // One full block plus a short remainder block.
  const std::size_t trials = ir::kBlockTrials + 7;
  std::vector<double> got(trials);
  support::Rng rng(4242);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  // Replay: per block, slot "x" first (live slot, ascending), then the
  // stochastic constant at its node occurrence. sd = halfwidth / 2.
  std::vector<double> expected(trials);
  support::Rng replay(4242);
  std::vector<double> xs(ir::kBlockTrials), cs(ir::kBlockTrials);
  std::size_t done = 0;
  while (done < trials) {
    const std::size_t lanes = std::min(ir::kBlockTrials, trials - done);
    replay.normal_fill({xs.data(), lanes}, 0.8, 0.1);
    replay.normal_fill({cs.data(), lanes}, 2.0, 0.25);
    for (std::size_t i = 0; i < lanes; ++i) {
      expected[done + i] = xs[i] + cs[i];
    }
    done += lanes;
  }
  for (std::size_t t = 0; t < trials; ++t) {
    ASSERT_DOUBLE_EQ(got[t], expected[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, PrecisionStopReplaysCheckpointsDrawOrderAndStopCount) {
  // sample_adaptive under a precision rule: blocks grow through
  // stats::next_block_width's doubling checkpoints, each block draws in
  // the kBlocked order at its own width (slot "x", then the stochastic
  // constant), each block's moments merge into the summary in order (the
  // summary contract at ir::kBlockTrials), and the run stops at the first
  // checkpoint where that summary meets the target.
  const auto expr =
      add(param("x"), constant(StochasticValue(2.0, 0.5)));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(0.8, 0.2));
  const stats::StopRule rule =
      stats::StopRule::relative_width(0.004, 50'000, 64);

  support::Rng rng(4242);
  ir::EvalWorkspace ws;
  const ir::AdaptiveResult got = prog.sample_adaptive(env, rng, rule, ws);

  support::Rng replay(4242);
  stats::SequentialEstimator est(rule);
  std::vector<std::size_t> widths;
  std::vector<double> xs(ir::kBlockTrials), cs(ir::kBlockTrials),
      block(ir::kBlockTrials);
  for (;;) {
    const std::size_t width =
        stats::next_block_width(est.count(), rule, ir::kBlockTrials);
    if (width == 0) break;
    widths.push_back(width);
    replay.normal_fill({xs.data(), width}, 0.8, 0.1);
    replay.normal_fill({cs.data(), width}, 2.0, 0.25);
    for (std::size_t i = 0; i < width; ++i) block[i] = xs[i] + cs[i];
    est.merge(stats::OnlineStats::from_block({block.data(), width}));
    if (est.should_stop()) break;
  }
  // The target, not the clamp, stopped the run, past the doubling phase.
  ASSERT_TRUE(est.precision_met());
  ASSERT_LT(est.count(), rule.max_trials);
  const std::vector<std::size_t> doubling = {64, 64, 128, 256, 512, 1024};
  ASSERT_GT(widths.size(), doubling.size());
  EXPECT_TRUE(std::equal(doubling.begin(), doubling.end(), widths.begin()));

  EXPECT_EQ(got.trials, est.count());
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.ci_halfwidth, est.ci_halfwidth());
  const StochasticValue want =
      StochasticValue::from_mean_sd(est.mean(), est.sd());
  EXPECT_EQ(got.value.mean(), want.mean());
  EXPECT_EQ(got.value.halfwidth(), want.halfwidth());
  EXPECT_EQ(rng.uniform(), replay.uniform()) << "stream position";
}

TEST(McEngineBlocked, UnrelatedIterateRedrawsBodySlotsPerRepetition) {
  const auto expr = iterate(param("x"), 3, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.4));

  const std::size_t trials = 64;
  std::vector<double> got(trials);
  support::Rng rng(11);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  // Replay: the block prefill draws "x" once (the enclosing trial's
  // cached draw — unused here because every read is inside the unrelated
  // body), then each of the 3 repetitions redraws it.
  support::Rng replay(11);
  std::vector<double> prefill(trials), rep(trials), expected(trials, 0.0);
  replay.normal_fill({prefill.data(), trials}, 1.0, 0.2);
  for (int r = 0; r < 3; ++r) {
    replay.normal_fill({rep.data(), trials}, 1.0, 0.2);
    for (std::size_t t = 0; t < trials; ++t) expected[t] += rep[t];
  }
  for (std::size_t t = 0; t < trials; ++t) {
    ASSERT_DOUBLE_EQ(got[t], expected[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, RelatedIterateScalesOneSharedDraw) {
  const auto expr = iterate(param("x"), 4, Dependence::kRelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.4));

  const std::size_t trials = 32;
  std::vector<double> got(trials);
  support::Rng rng(17);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(17);
  std::vector<double> xs(trials);
  replay.normal_fill({xs.data(), trials}, 1.0, 0.2);
  for (std::size_t t = 0; t < trials; ++t) {
    ASSERT_DOUBLE_EQ(got[t], 4.0 * xs[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, NestedUnrelatedIteratesRedrawPerInnerAndOuterPass) {
  // An unrelated iterate whose body holds another: the inner body redraws
  // "x" per inner pass, the outer body redraws "x" and "y" per outer pass
  // (its "x" draw is shadowed by the inner redraws), and the enclosing
  // trial's prologue draw of "x" survives both for the final term.
  const auto inner = iterate(param("x"), 3, Dependence::kUnrelated);
  const auto body = add(inner, param("y"), Dependence::kUnrelated);
  const auto expr = add(iterate(body, 4, Dependence::kUnrelated), param("x"),
                        Dependence::kRelated);
  const ir::Program prog = compile(*expr);
  ASSERT_LT(prog.slot("x"), prog.slot("y"));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.2));
  env.bind(prog.slot("y"), StochasticValue(2.0, 0.3));

  constexpr std::size_t kTrials = 16;
  std::vector<double> got(kTrials);
  support::Rng rng(11);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(11);
  std::vector<double> px(kTrials), py(kTrials), rx(kTrials), ry(kTrials),
      ix(kTrials), outer(kTrials, 0.0);
  replay.normal_fill(px, 1.0, 0.1);  // prologue, ascending slot id
  replay.normal_fill(py, 2.0, 0.15);
  for (int o = 0; o < 4; ++o) {
    replay.normal_fill(rx, 1.0, 0.1);  // outer body slots, ascending
    replay.normal_fill(ry, 2.0, 0.15);
    std::vector<double> inner_sum(kTrials, 0.0);
    for (int i = 0; i < 3; ++i) {
      replay.normal_fill(ix, 1.0, 0.1);
      for (std::size_t t = 0; t < kTrials; ++t) inner_sum[t] += ix[t];
    }
    for (std::size_t t = 0; t < kTrials; ++t) outer[t] += inner_sum[t] + ry[t];
  }
  for (std::size_t t = 0; t < kTrials; ++t) {
    ASSERT_EQ(got[t], outer[t] + px[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, SharedStochasticConstantDrawsPerOccurrence) {
  // add(noisy, noisy): the second occurrence is a kRef to the first, and
  // re-executing its region fills the constant's row a second time.
  const auto noisy = constant(StochasticValue(5.0, 1.0));
  const auto expr = add(noisy, noisy, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  const ir::SlotEnvironment env = prog.make_environment();

  constexpr std::size_t kTrials = 16;
  std::vector<double> got(kTrials);
  support::Rng rng(3);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(3);
  std::vector<double> c1(kTrials), c2(kTrials);
  replay.normal_fill(c1, 5.0, 0.5);
  replay.normal_fill(c2, 5.0, 0.5);
  for (std::size_t t = 0; t < kTrials; ++t) {
    ASSERT_EQ(got[t], c1[t] + c2[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, SharedUnrelatedIterateNestsItsSaveInsideTheRef) {
  // sum({it, it, p1}) with it = iterate(p1, 2, unrelated): the ref to `it`
  // re-runs the iterate, whose slot save/restore then nests inside the
  // ref's row save/restore on the one lane_saved stack. Per block: P (the
  // prologue draw of p1), R1 R2 for the first occurrence, R3 R4 through
  // the ref, and the last term reads P again.
  const auto it = iterate(param("p1"), 2, Dependence::kUnrelated);
  const auto expr = sum({it, it, param("p1")}, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("p1"), StochasticValue(1.0, 0.2));

  constexpr std::size_t kTrials = 16;
  std::vector<double> got(kTrials);
  support::Rng rng(5);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(5);
  std::vector<double> p(kTrials), r1(kTrials), r2(kTrials), r3(kTrials),
      r4(kTrials);
  for (auto* row : {&p, &r1, &r2, &r3, &r4}) replay.normal_fill(*row, 1.0, 0.1);
  for (std::size_t t = 0; t < kTrials; ++t) {
    ASSERT_EQ(got[t], (r1[t] + r2[t]) + (r3[t] + r4[t]) + p[t])
        << "trial " << t;
  }
}

TEST(McEngineBlocked, RefAfterUnrelatedIterateReadsTheTrialDraw) {
  // add(iterate(x, 3, unrelated), x) with one shared `x`: the second `x`
  // is a kRef into the iterate's body region. Re-running that region
  // after the iterate reads the restored prologue draw P, not the last
  // repetition's R3 still sitting in the region's row: R1 + R2 + R3 + P.
  const auto x = param("x");
  const auto expr = add(iterate(x, 3, Dependence::kUnrelated), x,
                        Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.4));

  constexpr std::size_t kTrials = 16;
  std::vector<double> got(kTrials);
  support::Rng rng(21);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(21);
  std::vector<double> p(kTrials), r1(kTrials), r2(kTrials), r3(kTrials);
  for (auto* row : {&p, &r1, &r2, &r3}) replay.normal_fill(*row, 1.0, 0.2);
  for (std::size_t t = 0; t < kTrials; ++t) {
    ASSERT_EQ(got[t], (r1[t] + r2[t] + r3[t]) + p[t]) << "trial " << t;
  }
}

TEST(McEngineBlocked, SameSeedSameResultAcrossWorkspaces) {
  const auto expr = add(mul(param("a"), param("b")),
                        constant(StochasticValue(3.0, 0.6)));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(0.9, 0.2));
  env.bind(prog.slot("b"), StochasticValue(1.1, 0.1));

  support::Rng r1(5), r2(5), r3(6);
  ir::EvalWorkspace w1, w2, w3;
  const auto a = prog.sample_trials(env, r1, 5000, w1);
  const auto b = prog.sample_trials(env, r2, 5000, w2);
  const auto c = prog.sample_trials(env, r3, 5000, w3);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.halfwidth(), b.halfwidth());
  EXPECT_NE(a.mean(), c.mean());
}

TEST(McEngineBlocked, AgreesWithTreeSamplerStatistically) {
  // Same distribution, different stream order: the blocked engine and
  // Expr::sample must agree on the underlying quantity, not bit for bit.
  // n = 40000 per side; the mean within 4.5 standard errors of the
  // difference and the sd within 4.5 standard errors of the log sd ratio
  // (tests/sample_agreement.hpp derives both from n).
  const auto phase = vmax({mul(param("a"), constant(StochasticValue(2.0))),
                           mul(param("b"), constant(StochasticValue(1.5)))});
  const auto expr = iterate(phase, 10, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  Environment tree_env;
  tree_env.bind("a", StochasticValue(1.0, 0.3));
  tree_env.bind("b", StochasticValue(1.2, 0.4));
  const ir::SlotEnvironment env = bind_environment(prog, tree_env);

  constexpr std::size_t kTrials = 40'000;
  std::vector<double> blocked(kTrials);
  support::Rng rb(303);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rb, blocked, ws);
  support::Rng rt(404);
  const std::vector<double> tree =
      testutil::tree_samples(*expr, tree_env, rt, kTrials);
  const testutil::Agreement g = testutil::agreement(blocked, tree);
  EXPECT_LE(std::abs(g.z), testutil::kSigmas)
      << "blocked mean " << g.a.mean << ", tree mean " << g.b.mean;
  EXPECT_LE(g.sd_log, g.sd_tol)
      << "blocked sd " << g.a.sd << ", tree sd " << g.b.sd;
}

/// The text of the exception `f` throws; empty when it returns normally.
template <typename F>
std::string thrown_message(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

TEST(McEngineBlocked, SampledDivisionByZeroInAnyLaneThrows) {
  // vmax({x, 0}) clamps x's negative draws to exactly zero, so the
  // denominator is zero in some lanes. The seed keeps lane 0 positive: a
  // guard that looked at the first lane only would miss the zeros.
  const auto expr =
      quotient(constant(StochasticValue(1.0)),
               vmax({param("x"), constant(StochasticValue(0.0))}));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(0.5, 2.0));  // sd 1: ~31% < 0
  constexpr std::uint64_t kSeed = 9;
  constexpr std::size_t kPartial = 64;

  // The block prologue's draw of "x", replayed: lane 0 divides by a
  // positive value, and a later lane of the partial block by zero.
  support::Rng replay(kSeed);
  std::vector<double> xs(ir::kBlockTrials);
  replay.normal_fill(xs, 0.5, 1.0);
  ASSERT_GT(xs[0], 0.0);
  ASSERT_TRUE(std::any_of(xs.begin() + 1, xs.begin() + kPartial,
                          [](double x) { return x <= 0.0; }));

  const std::string want = "sampled division by zero";
  for (const std::size_t trials : {ir::kBlockTrials, kPartial}) {
    std::vector<double> out(trials);
    support::Rng rng(kSeed);
    ir::EvalWorkspace ws;
    EXPECT_NE(thrown_message([&] { prog.sample_into(env, rng, out, ws); })
                  .find(want),
              std::string::npos)
        << trials << " trials";
  }
  support::Rng adaptive(kSeed);
  EXPECT_NE(thrown_message([&] {
              (void)prog.sample_adaptive(
                  env, adaptive,
                  stats::StopRule::relative_width(0.01, 4096, kPartial));
            }).find(want),
            std::string::npos);
}

TEST(McEngineBlocked, DivideGuardPassesOverflowAndCatchesAZeroInTheLastLane) {
  // The kDiv guard throws for a zero denominator and for nothing else: a
  // quotient that overflows to +inf over a non-zero denominator passes
  // through, and a zero in the last lane of a 63-lane block (a vectorized
  // loop's scalar tail) throws.
  {
    const auto expr =
        quotient(constant(StochasticValue(1e300)), param("x"));
    const ir::Program prog = compile(*expr);
    ir::SlotEnvironment env = prog.make_environment();
    env.bind(prog.slot("x"), StochasticValue(1e-10, 2e-11));  // 10 sd > 0
    for (const std::size_t trials : {std::size_t{63}, ir::kBlockTrials}) {
      std::vector<double> out(trials);
      support::Rng rng(5);
      ir::EvalWorkspace ws;
      EXPECT_EQ(thrown_message([&] { prog.sample_into(env, rng, out, ws); }),
                "")
          << trials << " trials";
      EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double q) {
        return std::isinf(q) && q > 0.0;
      })) << trials << " trials";
    }
  }
  // vmax({x, 0}) is exactly zero where x <= 0. At this seed the block
  // prologue's draw of "x" (mean 2, sd 1) is positive in lanes 0-61 and
  // negative in lane 62 only.
  const auto expr =
      quotient(constant(StochasticValue(1.0)),
               vmax({param("x"), constant(StochasticValue(0.0))}));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(2.0, 2.0));
  constexpr std::uint64_t kSeed = 183;
  constexpr std::size_t kLanes = 63;
  support::Rng replay(kSeed);
  std::vector<double> xs(kLanes);
  replay.normal_fill(xs, 2.0, 1.0);
  ASSERT_TRUE(std::all_of(xs.begin(), xs.end() - 1,
                          [](double x) { return x > 0.0; }));
  ASSERT_LE(xs.back(), 0.0);
  std::vector<double> out(kLanes);
  support::Rng rng(kSeed);
  ir::EvalWorkspace ws;
  EXPECT_NE(thrown_message([&] { prog.sample_into(env, rng, out, ws); })
                .find("sampled division by zero"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The summary contract (ir::kBlockTrials): block moments from
// OnlineStats::from_block, merged in order by OnlineStats::merge, checked
// against a long double two-pass reference on adversarial data — a mean
// of 1e6 with an sd of 1e-3, where a sum-of-squares formula cancels to
// noise.

/// Mean and sum of squared deviations of `xs`, two passes in long double
/// (64-bit significand: its own error is ~2^11 below the bounds below).
struct Reference {
  long double mean = 0.0L;
  long double m2 = 0.0L;
};

Reference two_pass(std::span<const double> xs) {
  Reference r;
  for (const double x : xs) r.mean += x;
  r.mean /= static_cast<long double>(xs.size());
  for (const double x : xs) r.m2 += (x - r.mean) * (x - r.mean);
  return r;
}

/// How far the merged summary of normal data (sd `sigma`, |x| <= `x_max`)
/// drawn in blocks of at most `w` values with `merges` merges may sit from
/// the reference. With u = 2^-53 and to first order in u:
///  * A block's 4-accumulator sum adds at most ceil(w/4) - 1 values per
///    accumulator plus two combining adds, so with the divide its mean is
///    within e = (ceil(w/4) + 2) u x_max of the block's exact mean.
///  * Each merge adds at most 2 u x_max of rounding to the running mean
///    (the add at |mean| <= x_max and the increment's own, smaller one),
///    so |mean - reference| <= e + 2 merges u x_max.
///  * x - mean is exact (Sterbenz: both within a factor 2 of each other),
///    and a block's squared deviations carry ceil(w/4) + 3 roundings; about
///    a mean off by e they exceed the block's true M2 by at most w e^2.
///  * Chan's update adds d^2 na nb / n for the difference d of two means,
///    each off by e, so d is off by 2e. With |d| within 6 standard errors,
///    sigma sqrt(n / (na nb)), and na nb / n <= nb <= w, each merge moves
///    M2 by at most 24 e sigma sqrt(w) + 4 w e^2, plus a few roundings.
/// The sd's relative error is half of M2's, plus the square root's and the
/// divide's roundings.
struct SummaryBound {
  double mean = 0.0;    ///< absolute
  double sd_rel = 0.0;  ///< relative to the reference sd
};

SummaryBound summary_bound(std::size_t w, std::size_t merges, double x_max,
                           double sigma, long double m2_ref) {
  constexpr double u = 0x1p-53;
  const auto blocks = static_cast<double>(merges + 1);
  const auto wd = static_cast<double>(w);
  const double quarter = std::ceil(wd / 4.0);
  const auto k = static_cast<double>(merges);
  const double e = (quarter + 2.0) * u * x_max;
  const double per_merge = 24.0 * e * sigma * std::sqrt(wd) + 4.0 * wd * e * e;
  const double m2_rel =
      (blocks * wd * e * e + k * per_merge) / static_cast<double>(m2_ref) +
      (quarter + 3.0 + 4.0 * k) * u;
  return {e + 2.0 * k * u * x_max, 0.5 * m2_rel + 2.0 * u};
}

/// 1e6 + 1e-3 z for standard normal z.
std::vector<double> adversarial(std::size_t n, std::uint64_t seed) {
  std::vector<double> xs(n);
  support::Rng rng(seed);
  rng.normal_fill(xs, 1e6, 1e-3);
  return xs;
}

/// A summary (count, mean, sd) of the adversarial trials `xs`, drawn in
/// blocks of at most `w` with `merges` merges, against the reference.
void expect_matches_reference(std::size_t count, double mean, double sd,
                              std::span<const double> xs, std::size_t w,
                              std::size_t merges, const std::string& what) {
  const Reference ref = two_pass(xs);
  const double x_max = std::abs(*std::max_element(
      xs.begin(), xs.end(),
      [](double a, double b) { return std::abs(a) < std::abs(b); }));
  const SummaryBound bound = summary_bound(w, merges, x_max, 1e-3, ref.m2);
  const auto n = static_cast<long double>(xs.size());
  const auto sd_ref = static_cast<double>(std::sqrt(ref.m2 / (n - 1.0L)));
  ASSERT_EQ(count, xs.size()) << what;
  EXPECT_LE(std::abs(static_cast<double>(mean - ref.mean)), bound.mean)
      << what;
  EXPECT_LE(std::abs(sd - sd_ref), bound.sd_rel * sd_ref)
      << what << ": sd " << sd << ", reference " << sd_ref;
}

TEST(McEngineSummary, BlockMomentsMatchLongDoubleTwoPassAtEveryWidth) {
  // Merge blocks of w values, the last one partial, as the engine merges
  // its blocks.
  for (const std::size_t w : {2u, 3u, 4u, 5u, 7u, 8u, 63u, 64u, 100u, 255u,
                              512u, 1000u, 1023u, 1024u}) {
    const std::vector<double> xs = adversarial(3 * w + (w + 1) / 2, 90 + w);
    stats::OnlineStats merged;
    std::size_t merges = 0;
    for (std::size_t b = 0; b < xs.size(); b += w) {
      const std::size_t width = std::min(w, xs.size() - b);
      merges += merged.count() > 0 ? 1 : 0;
      merged.merge(stats::OnlineStats::from_block({xs.data() + b, width}));
    }
    expect_matches_reference(merged.count(), merged.mean(), merged.sd(), xs,
                             w, merges, "width " + std::to_string(w));
  }
}

TEST(McEngineSummary, EngineMatchesReferenceAndFixedRuleIsSampleTrials) {
  // A one-slot program draws one normal per trial, in order, whatever the
  // block widths, so sample_into replays the raw trials of any schedule.
  const ir::Program prog = compile(*param("x"));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1e6, 2e-3));  // sd 1e-3
  ir::EvalWorkspace ws;
  const auto raw = [&](std::size_t n, std::uint64_t seed) {
    std::vector<double> xs(n);
    support::Rng rng(seed);
    prog.sample_into(env, rng, xs, ws);
    return xs;
  };
  // The served value is mean ± 2 sd; halving the half-width is exact.
  const auto check = [](const ir::AdaptiveResult& r,
                        std::span<const double> xs, std::size_t w,
                        std::size_t merges, const std::string& what) {
    expect_matches_reference(r.trials, r.value.mean(),
                             r.value.halfwidth() / 2.0, xs, w, merges, what);
  };

  // Fixed rules: straight kBlockTrials blocks with a partial last one, and
  // sample_trials is that rule bit for bit.
  for (const std::size_t n : {std::size_t{2}, std::size_t{1023},
                              ir::kBlockTrials, ir::kBlockTrials + 1,
                              std::size_t{3000}}) {
    const std::uint64_t seed = 500 + n;
    support::Rng a(seed);
    support::Rng b(seed);
    const ir::AdaptiveResult fixed =
        prog.sample_adaptive(env, a, stats::StopRule::fixed(n), ws);
    const StochasticValue trials = prog.sample_trials(env, b, n, ws);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fixed.value.mean()),
              std::bit_cast<std::uint64_t>(trials.mean()))
        << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fixed.value.halfwidth()),
              std::bit_cast<std::uint64_t>(trials.halfwidth()))
        << n;
    const std::size_t blocks = (n + ir::kBlockTrials - 1) / ir::kBlockTrials;
    check(fixed, raw(n, seed), std::min(n, ir::kBlockTrials), blocks - 1,
          "fixed " + std::to_string(n));
  }

  // A precision rule that never stops early walks every doubling width:
  // 2, 2, 4, ..., 512, then 1024-wide blocks and a partial 904.
  const stats::StopRule rule = stats::StopRule::absolute(1e-300, 5000, 2);
  support::Rng rng(77);
  const ir::AdaptiveResult run = prog.sample_adaptive(env, rng, rule, ws);
  EXPECT_FALSE(run.converged);
  check(run, raw(5000, 77), ir::kBlockTrials, 13, "doubling widths");
}

// ---------------------------------------------------------------------------
// Optimizer passes.

/// Random expression DAGs for the optimizer's differential tests: nested
/// sums/products/quotients/extremes/iterates over a small parameter pool,
/// with occasional subtree reuse (shared nodes lower to kRef).
ExprPtr random_expr(support::Rng& rng, int depth, std::vector<ExprPtr>& pool) {
  static const std::string kParams[] = {"a", "b", "c"};
  if (depth <= 0 || rng.uniform() < 0.25) {
    switch (rng.uniform_int(4)) {
      case 0:
        return constant(StochasticValue(rng.uniform(0.5, 3.0)));
      case 1:
        return constant(
            StochasticValue(rng.uniform(1.0, 3.0), rng.uniform(0.0, 0.4)));
      case 2:
        if (!pool.empty()) return pool[rng.uniform_int(pool.size())];
        [[fallthrough]];
      default:
        return param(kParams[rng.uniform_int(3)]);
    }
  }
  const auto child = [&] { return random_expr(rng, depth - 1, pool); };
  const auto children = [&](std::size_t lo) {
    std::vector<ExprPtr> out;
    const std::size_t k = lo + rng.uniform_int(3);
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) out.push_back(child());
    return out;
  };
  const Dependence dep =
      rng.uniform() < 0.5 ? Dependence::kUnrelated : Dependence::kRelated;
  static const ExtremePolicy kPolicies[] = {ExtremePolicy::kLargestMean,
                                            ExtremePolicy::kLargestUpper,
                                            ExtremePolicy::kClark};
  ExprPtr e;
  switch (rng.uniform_int(6)) {
    case 0:
      e = sum(children(2), dep);
      break;
    case 1:
      e = prod(children(2), dep);
      break;
    case 2:
      // Denominator mean >= 2 with sd <= 0.1 keeps sampled denominators
      // 20+ sigma from zero: deterministic seeds, deterministic safety.
      e = quotient(child(),
                   constant(StochasticValue(rng.uniform(2.0, 4.0),
                                            rng.uniform(0.0, 0.2))),
                   dep);
      break;
    case 3:
      e = vmax(children(2), kPolicies[rng.uniform_int(3)]);
      break;
    case 4:
      e = vmin(children(2), kPolicies[rng.uniform_int(3)]);
      break;
    default:
      e = iterate(child(), 1 + rng.uniform_int(4), dep);
      break;
  }
  pool.push_back(e);
  return e;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_sv_eq(const StochasticValue& a, const StochasticValue& b,
                  const std::string& what) {
  EXPECT_EQ(bits(a.mean()), bits(b.mean())) << what;
  EXPECT_EQ(bits(a.halfwidth()), bits(b.halfwidth())) << what;
}

TEST(OptimizerPasses, EveryPassIsBitExactInAllModesOnRandomDags) {
  constexpr std::size_t kDags = 25;
  constexpr std::size_t kTrials = 300;
  const OptimizeOptions kVariants[] = {
      {.fold_constants = true, .fuse_groups = false, .eliminate_dead = false},
      {.fold_constants = false, .fuse_groups = true, .eliminate_dead = false},
      {.fold_constants = false, .fuse_groups = false, .eliminate_dead = true},
      {},  // the full default pipeline
  };
  for (std::size_t d = 0; d < kDags; ++d) {
    support::Rng gen(9000 + d);
    std::vector<ExprPtr> pool;
    const ExprPtr expr = random_expr(gen, 4, pool);
    const ir::Program base = compile_unoptimized(*expr);
    ir::SlotEnvironment env = base.make_environment();
    for (std::uint32_t s = 0; s < base.slot_count(); ++s) {
      env.bind(s, StochasticValue(gen.uniform(0.6, 1.4), gen.uniform(0.0, 0.3)));
    }
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      OptimizeStats stats;
      const ir::Program opt = optimize(base, kVariants[v], &stats);
      const std::string what =
          "dag " + std::to_string(d) + " variant " + std::to_string(v);
      EXPECT_LE(opt.node_count(), base.node_count()) << what;
      // The slot table is preserved verbatim, so `env` drives both.
      ASSERT_EQ(opt.slot_count(), base.slot_count()) << what;
      expect_sv_eq(opt.evaluate(env), base.evaluate(env), what + " stochastic");
      EXPECT_EQ(bits(opt.evaluate_point(env)), bits(base.evaluate_point(env)))
          << what << " point";
      // Bit-exact per seed: no pass may add, drop, or reorder a draw
      // event.
      support::Rng ra(100 + d), rb(100 + d);
      expect_sv_eq(opt.sample_trials(env, ra, kTrials),
                   base.sample_trials(env, rb, kTrials), what + " blocked");
    }
  }
}

TEST(OptimizerPasses, PurePointModelFoldsToOneLiteralAndSkipsSampling) {
  // (2 + 0.5) summed over 4 unrelated iterations: every value is a point,
  // so the whole model folds to the literal 10 (dyadic values keep the
  // three modes' arithmetic — including sample-mode repeated addition —
  // exactly equal, which the fold guard requires).
  const auto expr = iterate(add(constant(StochasticValue(2.0)),
                                constant(StochasticValue(0.5))),
                            4, Dependence::kUnrelated);
  const ir::Program base = compile_unoptimized(*expr);
  OptimizeStats stats;
  const ir::Program opt = optimize(base, {}, &stats);
  ASSERT_EQ(opt.node_count(), 1u);
  EXPECT_EQ(opt.node(0).op, ir::OpCode::kConst);
  EXPECT_TRUE(opt.constant(0).is_point());
  EXPECT_DOUBLE_EQ(opt.constant(0).mean(), 10.0);
  EXPECT_GE(stats.folded, 2u);
  EXPECT_EQ(stats.removed_nodes, base.node_count() - 1);

  // Sampling a pure-point program is a no-op on the RNG: the fast path
  // returns the literal without drawing.
  ir::SlotEnvironment env = opt.make_environment();
  support::Rng rng(77), untouched(77);
  const auto mc = opt.sample_trials(env, rng, 10'000);
  EXPECT_TRUE(mc.is_point());
  EXPECT_DOUBLE_EQ(mc.mean(), 10.0);
  EXPECT_EQ(rng(), untouched());
}

TEST(OptimizerPasses, FusesMaxTreesAndHeadPositionSumChains) {
  const auto a = param("a"), b = param("b"), c = param("c"), d = param("d"),
             e = param("e");
  {
    // Balanced max-of-max tree, one policy: both inner nodes splice into
    // the root (any operand position), leaving one wide 5-ary max.
    const auto tree = vmax({vmax({a, b}), vmax({c, d}), e});
    OptimizeStats stats;
    const ir::Program opt =
        optimize(compile_unoptimized(*tree), {}, &stats);
    EXPECT_EQ(stats.fused, 2u);
    EXPECT_EQ(stats.removed_nodes, 2u);
    const ir::Node& root = opt.node(opt.node_count() - 1);
    EXPECT_EQ(root.op, ir::OpCode::kMax);
    EXPECT_EQ(root.count, 5u);
  }
  {
    // Sum chains fuse only at the head (sequential folds are bit-exact
    // under flattening only there): add(add(a,b),c) flattens...
    const auto head = add(add(a, b), c);
    OptimizeStats stats;
    const ir::Program opt =
        optimize(compile_unoptimized(*head), {}, &stats);
    EXPECT_EQ(stats.fused, 1u);
    EXPECT_EQ(opt.node(opt.node_count() - 1).count, 3u);
  }
  {
    // ...but a tail-position nested sum stays nested.
    const auto tail = sum({a, add(b, c)});
    OptimizeStats stats;
    const ir::Program opt =
        optimize(compile_unoptimized(*tail), {}, &stats);
    EXPECT_EQ(stats.fused, 0u);
  }
  {
    // Clark's fold is not associative: no fusion under kClark.
    const auto clark = vmax({vmax({a, b}, ExtremePolicy::kClark), c},
                            ExtremePolicy::kClark);
    OptimizeStats stats;
    const ir::Program opt =
        optimize(compile_unoptimized(*clark), {}, &stats);
    EXPECT_EQ(stats.fused, 0u);
  }
}

TEST(OptimizerPasses, ReportsDeadSlotsAndBlockedEngineNeverDrawsThem) {
  // Seed the slot table from a base model over {x, y}, then compile an
  // expression that only reads x: slot y exists but is dead.
  const auto base_expr = add(param("x"), param("y"));
  const ir::Program base = compile_unoptimized(*base_expr);
  const auto expr = mul(param("x"), constant(StochasticValue(2.0)));
  OptimizeStats stats;
  const ir::Program prog =
      optimize(compile_unoptimized(*expr, base), {}, &stats);
  ASSERT_EQ(prog.slot_count(), 2u);
  EXPECT_EQ(stats.dead_slots, 1u);
  ASSERT_EQ(prog.live_slots().size(), 1u);
  EXPECT_EQ(prog.live_slots()[0], prog.slot("x"));

  // Both slots bound stochastic; the replay draws ONLY x. If the engine
  // drew for dead slot y the streams would diverge.
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.4));
  env.bind(prog.slot("y"), StochasticValue(5.0, 2.0));
  const std::size_t trials = 16;
  std::vector<double> got(trials);
  support::Rng rng(33);
  ir::EvalWorkspace ws;
  prog.sample_into(env, rng, got, ws);

  support::Rng replay(33);
  std::vector<double> xs(trials);
  replay.normal_fill({xs.data(), trials}, 1.0, 0.2);
  for (std::size_t t = 0; t < trials; ++t) {
    ASSERT_DOUBLE_EQ(got[t], 2.0 * xs[t]) << "trial " << t;
  }
}

}  // namespace
}  // namespace sspred::model
