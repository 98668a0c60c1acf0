// Unit tests for group operations (Max/Min policies, Clark's
// approximation) and modal mixing (§2.1.2, §2.3.3).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/gmm.hpp"
#include "stoch/group_ops.hpp"
#include "stoch/modes.hpp"
#include "stoch/montecarlo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::stoch {
namespace {

TEST(Smax, LargestMeanPicksPaperExampleA) {
  // Paper §2.3.3: A = 4 ± 0.5, B = 3 ± 2, C = 3 ± 1. A has the largest
  // mean; B has the largest value in its range.
  const std::vector<StochasticValue> xs{{4.0, 0.5}, {3.0, 2.0}, {3.0, 1.0}};
  const StochasticValue by_mean = smax(xs, ExtremePolicy::kLargestMean);
  EXPECT_DOUBLE_EQ(by_mean.mean(), 4.0);
  EXPECT_DOUBLE_EQ(by_mean.halfwidth(), 0.5);
  const StochasticValue by_upper = smax(xs, ExtremePolicy::kLargestUpper);
  EXPECT_DOUBLE_EQ(by_upper.mean(), 3.0);
  EXPECT_DOUBLE_EQ(by_upper.halfwidth(), 2.0);
}

TEST(Smax, SingleOperandIsIdentity) {
  const std::vector<StochasticValue> xs{{7.0, 1.0}};
  for (auto p : {ExtremePolicy::kLargestMean, ExtremePolicy::kLargestUpper,
                 ExtremePolicy::kClark}) {
    const StochasticValue r = smax(xs, p);
    EXPECT_NEAR(r.mean(), 7.0, 1e-9);
  }
}

TEST(Smax, EmptyThrows) {
  const std::vector<StochasticValue> xs;
  EXPECT_THROW((void)smax(xs, ExtremePolicy::kLargestMean), support::Error);
}

TEST(ClarkMax, DominantOperandWins) {
  // When one operand is far above the other, max ≈ the dominant one.
  const StochasticValue big(100.0, 2.0);
  const StochasticValue small(1.0, 2.0);
  const StochasticValue r = clark_max(big, small);
  EXPECT_NEAR(r.mean(), 100.0, 0.01);
  EXPECT_NEAR(r.sd(), 1.0, 0.01);
}

TEST(ClarkMax, SymmetricOperandsShiftUp) {
  // max of two iid N(0,1) has mean 1/sqrt(pi).
  const StochasticValue x = StochasticValue::from_mean_sd(0.0, 1.0);
  const StochasticValue r = clark_max(x, x);
  EXPECT_NEAR(r.mean(), 1.0 / std::sqrt(M_PI), 1e-9);
}

TEST(ClarkMax, MatchesMonteCarlo) {
  const StochasticValue x = StochasticValue::from_mean_sd(10.0, 2.0);
  const StochasticValue y = StochasticValue::from_mean_sd(11.0, 1.0);
  support::Rng rng(7);
  const StochasticValue closed = clark_max(x, y);
  const StochasticValue empirical = empirical_combine(
      x, y, [](double a, double b) { return std::max(a, b); }, rng,
      stats::StopRule::fixed(300'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.02);
  EXPECT_NEAR(closed.sd(), empirical.sd(), 0.03);
}

TEST(ClarkMax, PerfectlyCoupledFallsBackToLargerMean) {
  const StochasticValue x = StochasticValue::from_mean_sd(5.0, 1.0);
  const StochasticValue r = clark_max(x, x, /*rho=*/1.0);
  EXPECT_DOUBLE_EQ(r.mean(), 5.0);
}

TEST(ClarkMax, InvalidCorrelationThrows) {
  const StochasticValue x(1.0, 1.0);
  EXPECT_THROW((void)clark_max(x, x, 1.5), support::Error);
}

TEST(Smin, MirrorsSmax) {
  const std::vector<StochasticValue> xs{{4.0, 0.5}, {3.0, 2.0}};
  const StochasticValue r = smin(xs, ExtremePolicy::kLargestMean);
  EXPECT_DOUBLE_EQ(r.mean(), 3.0);
  EXPECT_DOUBLE_EQ(r.halfwidth(), 2.0);
}

TEST(Smin, ClarkMinMatchesMonteCarlo) {
  const StochasticValue x = StochasticValue::from_mean_sd(10.0, 2.0);
  const StochasticValue y = StochasticValue::from_mean_sd(11.0, 1.0);
  support::Rng rng(11);
  const std::vector<StochasticValue> xs{x, y};
  const StochasticValue closed = smin(xs, ExtremePolicy::kClark);
  const StochasticValue empirical = empirical_combine(
      x, y, [](double a, double b) { return std::min(a, b); }, rng,
      stats::StopRule::fixed(300'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.02);
  EXPECT_NEAR(closed.sd(), empirical.sd(), 0.03);
}

TEST(MixModes, PaperFormula) {
  // P1(M1 ± SD1) + P2(M2 ± SD2) with conservative (related) accumulation.
  const std::vector<Mode> modes{
      {0.25, StochasticValue(0.33, 0.04)},
      {0.35, StochasticValue(0.49, 0.10)},
      {0.40, StochasticValue(0.94, 0.03)},
  };
  const StochasticValue mixed = mix_modes(modes);
  EXPECT_NEAR(mixed.mean(), 0.25 * 0.33 + 0.35 * 0.49 + 0.40 * 0.94, 1e-12);
  EXPECT_NEAR(mixed.halfwidth(),
              0.25 * 0.04 + 0.35 * 0.10 + 0.40 * 0.03, 1e-12);
}

TEST(MixModes, SingleModeIsIdentity) {
  const std::vector<Mode> modes{{1.0, StochasticValue(0.48, 0.05)}};
  const StochasticValue mixed = mix_modes(modes);
  EXPECT_DOUBLE_EQ(mixed.mean(), 0.48);
  EXPECT_DOUBLE_EQ(mixed.halfwidth(), 0.05);
}

TEST(MixModes, OccupanciesMustSumToOne) {
  const std::vector<Mode> bad{{0.5, StochasticValue(1.0, 0.1)}};
  EXPECT_THROW((void)mix_modes(bad), support::Error);
}

TEST(MixtureMoments, LawOfTotalVariance) {
  const std::vector<Mode> modes{
      {0.5, StochasticValue::from_mean_sd(0.0, 1.0)},
      {0.5, StochasticValue::from_mean_sd(10.0, 1.0)},
  };
  const StochasticValue mm = mixture_moments(modes);
  EXPECT_DOUBLE_EQ(mm.mean(), 5.0);
  // var = E[var] + var[means] = 1 + 25 = 26.
  EXPECT_NEAR(mm.sd(), std::sqrt(26.0), 1e-12);
}

TEST(MixtureMoments, MatchesEmpiricalMixture) {
  support::Rng rng(13);
  const std::vector<Mode> modes{
      {0.3, StochasticValue::from_mean_sd(0.33, 0.02)},
      {0.7, StochasticValue::from_mean_sd(0.94, 0.015)},
  };
  std::vector<double> xs;
  for (int i = 0; i < 200'000; ++i) {
    const auto& m = rng.uniform() < 0.3 ? modes[0] : modes[1];
    xs.push_back(sample(m.value, rng));
  }
  const StochasticValue mm = mixture_moments(modes);
  const StochasticValue emp = StochasticValue::from_sample(xs);
  EXPECT_NEAR(mm.mean(), emp.mean(), 0.01);
  EXPECT_NEAR(mm.sd(), emp.sd(), 0.01);
}

TEST(ModesFromGmm, ConvertsComponents) {
  stats::GmmFit fit;
  fit.components = {{0.4, 1.0, 0.1}, {0.6, 2.0, 0.2}};
  const auto modes = modes_from_gmm(fit);
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_DOUBLE_EQ(modes[0].occupancy, 0.4);
  EXPECT_DOUBLE_EQ(modes[0].value.mean(), 1.0);
  EXPECT_DOUBLE_EQ(modes[0].value.sd(), 0.1);
}

TEST(NearestMode, PicksClosestByMean) {
  const std::vector<Mode> modes{
      {0.3, StochasticValue(0.33, 0.02)},
      {0.3, StochasticValue(0.49, 0.05)},
      {0.4, StochasticValue(0.94, 0.02)},
  };
  EXPECT_DOUBLE_EQ(nearest_mode(modes, 0.50).value.mean(), 0.49);
  EXPECT_DOUBLE_EQ(nearest_mode(modes, 0.90).value.mean(), 0.94);
  EXPECT_DOUBLE_EQ(nearest_mode(modes, 0.10).value.mean(), 0.33);
}

}  // namespace
}  // namespace sspred::stoch
