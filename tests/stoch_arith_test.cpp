// Unit + property tests for the Table-2 stochastic arithmetic, including
// Monte-Carlo cross-validation of the closed forms.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stoch/arithmetic.hpp"
#include "stoch/montecarlo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::stoch {
namespace {

TEST(PointOps, AddPointShiftsMeanOnly) {
  const StochasticValue v(10.0, 2.0);
  const StochasticValue r = add_point(v, 5.0);
  EXPECT_DOUBLE_EQ(r.mean(), 15.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 2.0);
}

TEST(PointOps, ScaleScalesBoth) {
  const StochasticValue v(10.0, 2.0);
  const StochasticValue r = scale(v, 3.0);
  EXPECT_DOUBLE_EQ(r.mean(), 30.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 6.0);
}

TEST(PointOps, NegativeScaleKeepsHalfwidthPositive) {
  const StochasticValue r = scale({10.0, 2.0}, -2.0);
  EXPECT_DOUBLE_EQ(r.mean(), -20.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 4.0);
}

TEST(Add, RelatedIsConservativeSum) {
  const StochasticValue r =
      add({10.0, 2.0}, {5.0, 1.0}, Dependence::kRelated);
  EXPECT_DOUBLE_EQ(r.mean(), 15.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 3.0);
}

TEST(Add, UnrelatedIsRss) {
  const StochasticValue r =
      add({10.0, 3.0}, {5.0, 4.0}, Dependence::kUnrelated);
  EXPECT_DOUBLE_EQ(r.mean(), 15.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 5.0);  // sqrt(9+16)
}

TEST(Add, RelatedNeverNarrowerThanUnrelated) {
  const StochasticValue a(3.0, 1.5);
  const StochasticValue b(7.0, 2.5);
  EXPECT_GE(add(a, b, Dependence::kRelated).halfwidth(),
            add(a, b, Dependence::kUnrelated).halfwidth());
}

TEST(Sub, MeansSubtractSpreadsCombine) {
  const StochasticValue r =
      sub({10.0, 3.0}, {4.0, 4.0}, Dependence::kUnrelated);
  EXPECT_DOUBLE_EQ(r.mean(), 6.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 5.0);
}

TEST(Sum, SequenceAccumulates) {
  const std::vector<StochasticValue> xs{{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}};
  const StochasticValue rel = sum(xs, Dependence::kRelated);
  EXPECT_DOUBLE_EQ(rel.mean(), 6.0);
  EXPECT_DOUBLE_EQ(rel.halfwidth(), 3.0);
  const StochasticValue unrel = sum(xs, Dependence::kUnrelated);
  EXPECT_DOUBLE_EQ(unrel.mean(), 6.0);
  EXPECT_NEAR(unrel.halfwidth(), std::sqrt(3.0), 1e-12);
}

TEST(Mul, RelatedMatchesPaperFormula) {
  // (Xi ± ai)(Xj ± aj) = XiXj ± (ai Xj + aj Xi + ai aj)
  const StochasticValue r =
      mul({10.0, 1.0}, {20.0, 2.0}, Dependence::kRelated);
  EXPECT_DOUBLE_EQ(r.mean(), 200.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 1.0 * 20.0 + 2.0 * 10.0 + 1.0 * 2.0);
}

TEST(Mul, UnrelatedMatchesRssRelativeForm) {
  const StochasticValue r =
      mul({10.0, 1.0}, {20.0, 2.0}, Dependence::kUnrelated);
  EXPECT_DOUBLE_EQ(r.mean(), 200.0);
  EXPECT_NEAR(r.halfwidth(), 200.0 * std::sqrt(0.01 + 0.01), 1e-12);
}

TEST(Mul, ZeroMeanOperandGivesZeroPoint) {
  const StochasticValue r =
      mul({0.0, 1.0}, {5.0, 1.0}, Dependence::kUnrelated);
  EXPECT_TRUE(r.is_point());
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
}

TEST(Mul, PointTimesStochasticMatchesScale) {
  const StochasticValue v(10.0, 2.0);
  for (auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
    const StochasticValue r = mul(StochasticValue(3.0), v, dep);
    EXPECT_DOUBLE_EQ(r.mean(), 30.0);
    EXPECT_DOUBLE_EQ(r.halfwidth(), 6.0);
  }
}

TEST(Inverse, DeltaMethodForm) {
  const StochasticValue r = inverse({4.0, 0.8});
  EXPECT_DOUBLE_EQ(r.mean(), 0.25);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 0.8 / 16.0);
}

TEST(Inverse, PointInverseIsExact) {
  const StochasticValue r = inverse(StochasticValue(5.0));
  EXPECT_TRUE(r.is_point());
  EXPECT_DOUBLE_EQ(r.mean(), 0.2);
}

TEST(Inverse, RangeSpanningZeroThrows) {
  EXPECT_THROW((void)inverse({0.5, 1.0}), support::Error);
  EXPECT_THROW((void)inverse({0.0, 0.0}), support::Error);
  // Range endpoint exactly at zero counts as spanning it.
  EXPECT_THROW((void)inverse({1.0, 1.0}), support::Error);
}

TEST(Inverse, RangeSpanningZeroErrorNamesTheRange) {
  try {
    (void)inverse({0.5, 1.0});
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spans zero"), std::string::npos);
    EXPECT_NE(what.find("-0.5"), std::string::npos);  // range lower bound
    EXPECT_NE(what.find("1.5"), std::string::npos);   // range upper bound
  }
}

TEST(Div, DenominatorSpanningZeroThrowsNamingBothOperands) {
  const StochasticValue x(10.0, 1.0);
  EXPECT_THROW((void)div(x, {0.5, 1.0}, Dependence::kUnrelated),
               support::Error);
  try {
    (void)div(x, {0.5, 1.0}, Dependence::kRelated);
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("divide"), std::string::npos);
    EXPECT_NE(what.find("10"), std::string::npos);  // numerator appears too
    EXPECT_NE(what.find("spans zero"), std::string::npos);
  }
}

TEST(Div, MatchesMulByInverse) {
  const StochasticValue x(10.0, 1.0);
  const StochasticValue y(4.0, 0.4);
  const StochasticValue d = div(x, y, Dependence::kUnrelated);
  const StochasticValue m = mul(x, inverse(y), Dependence::kUnrelated);
  EXPECT_DOUBLE_EQ(d.mean(), m.mean());
  EXPECT_DOUBLE_EQ(d.halfwidth(), m.halfwidth());
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
}

TEST(Operators, UnrelatedSugar) {
  const StochasticValue a(6.0, 3.0);
  const StochasticValue b(8.0, 6.0);  // range [2, 14]: safely invertible
  EXPECT_DOUBLE_EQ((a + b).halfwidth(), std::sqrt(45.0));
  EXPECT_DOUBLE_EQ((a - b).mean(), -2.0);
  EXPECT_DOUBLE_EQ((a * b).mean(), 48.0);
  EXPECT_DOUBLE_EQ((a / b).mean(), 0.75);
  EXPECT_DOUBLE_EQ((-a).mean(), -6.0);
  EXPECT_DOUBLE_EQ((-a).halfwidth(), 3.0);
}

// --- Monte-Carlo cross-validation of the closed forms. -------------------

struct McCase {
  double mx, ax, my, ay;
};

class UnrelatedAddMc : public ::testing::TestWithParam<McCase> {};

TEST_P(UnrelatedAddMc, ClosedFormMatchesSampling) {
  const auto& c = GetParam();
  const StochasticValue x(c.mx, c.ax);
  const StochasticValue y(c.my, c.ay);
  support::Rng rng(99);
  const StochasticValue closed = add(x, y, Dependence::kUnrelated);
  const StochasticValue empirical = empirical_combine(
      x, y, [](double a, double b) { return a + b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.02 * (1.0 + std::abs(closed.mean())));
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(),
              0.03 * (1.0 + closed.halfwidth()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnrelatedAddMc,
    ::testing::Values(McCase{10, 2, 5, 1}, McCase{0, 1, 0, 1},
                      McCase{-3, 0.5, 8, 2}, McCase{100, 10, -50, 5}));

class UnrelatedMulMc : public ::testing::TestWithParam<McCase> {};

TEST_P(UnrelatedMulMc, ClosedFormMatchesSamplingForSmallRelativeSpread) {
  const auto& c = GetParam();
  const StochasticValue x(c.mx, c.ax);
  const StochasticValue y(c.my, c.ay);
  support::Rng rng(101);
  const StochasticValue closed = mul(x, y, Dependence::kUnrelated);
  const StochasticValue empirical = empirical_combine(
      x, y, [](double a, double b) { return a * b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(),
              0.02 * std::abs(closed.mean()));
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(),
              0.05 * closed.halfwidth());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnrelatedMulMc,
    ::testing::Values(McCase{10, 0.5, 20, 1}, McCase{100, 5, 3, 0.1},
                      McCase{12, 0.6, 0.48, 0.05}));

TEST(RelatedAddMc, ConservativeFormBoundsComonotonicSampling) {
  // With perfectly coupled operands the true spread is exactly a+b; the
  // related rule reproduces it.
  const StochasticValue x(10.0, 2.0);
  const StochasticValue y(5.0, 1.0);
  support::Rng rng(103);
  const StochasticValue closed = add(x, y, Dependence::kRelated);
  const StochasticValue empirical = empirical_combine_related(
      x, y, [](double a, double b) { return a + b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.05);
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(), 0.05);
}

TEST(DivMc, ClosedFormTracksSampling) {
  const StochasticValue x(10.0, 0.6);
  const StochasticValue y(0.5, 0.04);
  support::Rng rng(107);
  const StochasticValue closed = div(x, y, Dependence::kUnrelated);
  const StochasticValue empirical = empirical_combine(
      x, y, [](double a, double b) { return a / b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.02 * closed.mean());
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(),
              0.08 * closed.halfwidth());
}

TEST(Coverage, TwoSigmaRangeCoversNormalSamples) {
  const StochasticValue v(10.0, 2.0);
  support::Rng rng(109);
  EXPECT_NEAR(empirical_coverage(v, v, rng, stats::StopRule::fixed(200'000))
                  .value.mean(), 0.9545, 0.01);
}

TEST(EmpiricalStop, CombineReplaysBlockByBlockFromTheSeed) {
  // The StopRule overload draws its trials in stats::next_block_width
  // blocks of at most 1024, merges each block's moments and consults the
  // rule between blocks; its value is mean ± 2sd of the merged summary.
  // A replay of that schedule from the same seed must reproduce the
  // trial count and every bit of the result. x == y and a commutative op
  // make each trial independent of which operand is drawn first.
  const StochasticValue x(10.0, 2.0);
  const auto op = [](double a, double b) { return a * b; };
  struct Case {
    stats::StopRule rule;
    bool stops_early;  ///< precision met below the max clamp
  };
  const Case cases[] = {
      {stats::StopRule::absolute(0.5, 200'000, 64), true},
      {stats::StopRule::relative_width(0.004, 200'000, 1'024), true},
      {stats::StopRule::absolute(1e-9, 5'000, 64), false},
      {stats::StopRule::fixed(3'000), false}};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& [rule, stops_early] : cases) {
    support::Rng rng(77);
    const EmpiricalResult got = empirical_combine(x, x, op, rng, rule);

    support::Rng replay(77);
    stats::SequentialEstimator est(rule);
    std::vector<double> block;
    for (;;) {
      const std::size_t width =
          stats::next_block_width(est.count(), rule, 1'024);
      if (width == 0) break;
      block.resize(width);
      for (double& v : block) v = op(sample(x, replay), sample(x, replay));
      est.merge(stats::OnlineStats::from_block(block));
      if (est.should_stop()) break;
    }
    const StochasticValue want =
        StochasticValue::from_mean_sd(est.mean(), est.sd());
    const std::string what = "max " + std::to_string(rule.max_trials) +
                             " target " + std::to_string(rule.target);
    EXPECT_EQ(got.samples, est.count()) << what;
    EXPECT_EQ(bits(got.value.mean()), bits(want.mean())) << what;
    EXPECT_EQ(bits(got.value.halfwidth()), bits(want.halfwidth())) << what;
    EXPECT_EQ(bits(got.ci_halfwidth), bits(est.ci_halfwidth())) << what;
    EXPECT_EQ(got.converged, rule.target <= 0.0 || est.precision_met())
        << what;
    if (stops_early) {
      EXPECT_TRUE(got.converged) << what;
      EXPECT_LT(got.samples, rule.max_trials) << what;
    } else {
      EXPECT_EQ(got.samples, rule.max_trials) << what;
    }
  }
}

// Property sweep: halfwidth non-negativity and mean exactness for every
// op/dependence combination.
class ArithmeticPropertyTest
    : public ::testing::TestWithParam<std::tuple<McCase, Dependence>> {};

TEST_P(ArithmeticPropertyTest, MeansExactHalfwidthsNonNegative) {
  const auto& [c, dep] = GetParam();
  const StochasticValue x(c.mx, c.ax);
  const StochasticValue y(c.my, c.ay);

  const auto s = add(x, y, dep);
  EXPECT_DOUBLE_EQ(s.mean(), c.mx + c.my);
  EXPECT_GE(s.halfwidth(), 0.0);

  const auto d = sub(x, y, dep);
  EXPECT_DOUBLE_EQ(d.mean(), c.mx - c.my);
  EXPECT_GE(d.halfwidth(), 0.0);

  const auto m = mul(x, y, dep);
  EXPECT_DOUBLE_EQ(m.mean(), c.mx * c.my);
  EXPECT_GE(m.halfwidth(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArithmeticPropertyTest,
    ::testing::Combine(
        ::testing::Values(McCase{10, 2, 5, 1}, McCase{-10, 2, 5, 1},
                          McCase{10, 2, -5, 1}, McCase{-10, 2, -5, 1},
                          McCase{1e6, 10, 1e-6, 1e-8}, McCase{3, 0, 4, 0}),
        ::testing::Values(Dependence::kRelated, Dependence::kUnrelated)));

}  // namespace
}  // namespace sspred::stoch
