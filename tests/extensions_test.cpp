// Tests for the smaller extensions: the adaptive-window forecaster,
// explicit-correlation arithmetic, and load-trace persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "cluster/platform.hpp"
#include "machine/load_trace.hpp"
#include "nws/forecasters.hpp"
#include "stoch/arithmetic.hpp"
#include "stoch/montecarlo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred {
namespace {

// --- AdaptiveMean ---------------------------------------------------------

TEST(AdaptiveMean, ConstantSeriesIsExact) {
  const std::vector<double> h(80, 0.48);
  EXPECT_DOUBLE_EQ(nws::AdaptiveMean().predict(h), 0.48);
}

TEST(AdaptiveMean, PrefersShortWindowAfterLevelShift) {
  // 60 samples at 0.2, then 20 at 0.8: a long window drags the estimate
  // down; the adaptive forecaster should sit near the new level.
  std::vector<double> h(60, 0.2);
  h.insert(h.end(), 20, 0.8);
  const double pred = nws::AdaptiveMean().predict(h);
  EXPECT_GT(pred, 0.7);
}

TEST(AdaptiveMean, PrefersLongWindowOnWhiteNoise) {
  support::Rng rng(3);
  std::vector<double> h;
  for (int i = 0; i < 200; ++i) h.push_back(rng.normal(0.5, 0.1));
  const double pred = nws::AdaptiveMean().predict(h);
  EXPECT_NEAR(pred, 0.5, 0.06);  // near the long-run mean, not the last value
}

TEST(AdaptiveMean, ValidatesWindows) {
  EXPECT_THROW(nws::AdaptiveMean(std::vector<std::size_t>{}), support::Error);
  EXPECT_THROW(nws::AdaptiveMean({10, 5}), support::Error);
  EXPECT_THROW(nws::AdaptiveMean({0, 5}), support::Error);
}

TEST(AdaptiveMean, PresentInDefaultBank) {
  const auto bank = nws::default_bank();
  bool found = false;
  for (const auto& f : bank) {
    if (f->name() == "adaptive") found = true;
  }
  EXPECT_TRUE(found);
}

// --- Correlated arithmetic -------------------------------------------------

TEST(CorrelatedAdd, ReducesToKnownRegimes) {
  const stoch::StochasticValue x(10.0, 3.0);
  const stoch::StochasticValue y(5.0, 4.0);
  const auto rho0 = stoch::add_correlated(x, y, 0.0);
  EXPECT_DOUBLE_EQ(rho0.halfwidth(),
                   stoch::add(x, y, stoch::Dependence::kUnrelated).halfwidth());
  const auto rho1 = stoch::add_correlated(x, y, 1.0);
  EXPECT_DOUBLE_EQ(rho1.halfwidth(),
                   stoch::add(x, y, stoch::Dependence::kRelated).halfwidth());
}

TEST(CorrelatedAdd, NegativeCorrelationCancels) {
  const stoch::StochasticValue x(10.0, 3.0);
  const stoch::StochasticValue y(5.0, 3.0);
  const auto anti = stoch::add_correlated(x, y, -1.0);
  EXPECT_NEAR(anti.halfwidth(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(anti.mean(), 15.0);
}

class CorrelatedAddMc : public ::testing::TestWithParam<double> {};

TEST_P(CorrelatedAddMc, MatchesGaussianCopulaSampling) {
  const double rho = GetParam();
  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(5.0, 1.5);
  support::Rng rng(11);
  const auto closed = stoch::add_correlated(x, y, rho);
  const auto empirical = stoch::empirical_combine_correlated(
      x, y, rho, [](double a, double b) { return a + b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(), 0.03);
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(), 0.04);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorrelatedAddMc,
                         ::testing::Values(-0.8, -0.3, 0.0, 0.5, 0.9));

class CorrelatedMulMc : public ::testing::TestWithParam<double> {};

TEST_P(CorrelatedMulMc, DeltaMethodTracksSampling) {
  const double rho = GetParam();
  const stoch::StochasticValue x(10.0, 0.8);
  const stoch::StochasticValue y(20.0, 1.2);
  support::Rng rng(13);
  const auto closed = stoch::mul_correlated(x, y, rho);
  const auto empirical = stoch::empirical_combine_correlated(
      x, y, rho, [](double a, double b) { return a * b; }, rng,
      stats::StopRule::fixed(200'000)).value;
  EXPECT_NEAR(closed.mean(), empirical.mean(),
              0.01 * std::abs(empirical.mean()));
  EXPECT_NEAR(closed.halfwidth(), empirical.halfwidth(),
              0.06 * empirical.halfwidth() + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorrelatedMulMc,
                         ::testing::Values(-0.7, 0.0, 0.6, 1.0));

TEST(Correlated, RejectsOutOfRangeRho) {
  const stoch::StochasticValue x(1.0, 0.1);
  EXPECT_THROW((void)stoch::add_correlated(x, x, 1.5), support::Error);
  EXPECT_THROW((void)stoch::mul_correlated(x, x, -1.5), support::Error);
}

// --- Trace persistence ------------------------------------------------------

TEST(TraceIo, SaveLoadRoundTrip) {
  const machine::LoadTrace original = machine::LoadTrace::generate(
      cluster::platform2_load(), 200, 5.0, 17);
  const std::string path = "/tmp/sspred_trace_test.csv";
  original.save_csv(path);
  const machine::LoadTrace loaded = machine::LoadTrace::load_csv(path);
  ASSERT_EQ(loaded.samples().size(), original.samples().size());
  EXPECT_DOUBLE_EQ(loaded.sample_interval(), 5.0);
  for (std::size_t i = 0; i < loaded.samples().size(); ++i) {
    EXPECT_NEAR(loaded.samples()[i], original.samples()[i], 1e-9);
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, LoadRejectsBadFiles) {
  EXPECT_THROW((void)machine::LoadTrace::load_csv("/tmp/does_not_exist.csv"),
               support::Error);
  const std::string path = "/tmp/sspred_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "wrong,header\n1,0.5\n";
  }
  EXPECT_THROW((void)machine::LoadTrace::load_csv(path), support::Error);
  std::filesystem::remove(path);
}

TEST(TraceIo, LoadedTraceBehavesLikeOriginal) {
  const machine::LoadTrace original = machine::LoadTrace::generate(
      cluster::platform1_load(true), 100, 1.0, 19);
  const std::string path = "/tmp/sspred_trace_replay.csv";
  original.save_csv(path);
  const machine::LoadTrace loaded = machine::LoadTrace::load_csv(path);
  EXPECT_NEAR(loaded.finish_time(3.0, 10.0), original.finish_time(3.0, 10.0),
              1e-6);
  EXPECT_NEAR(loaded.average(0.0, 50.0), original.average(0.0, 50.0), 1e-9);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sspred
