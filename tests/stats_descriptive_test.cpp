// Unit tests for descriptive statistics: batch summaries, online Welford
// accumulation, quantiles, autocorrelation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::stats {
namespace {

TEST(Summarize, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summarize, SingleValue) {
  const std::vector<double> xs{3.5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.sd, 0.0);
}

TEST(Summarize, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW((void)summarize(xs), support::Error);
}

TEST(Summarize, SkewnessSignDetectsAsymmetry) {
  support::Rng rng(5);
  std::vector<double> right_skew;
  for (int i = 0; i < 20'000; ++i) right_skew.push_back(rng.exponential(1.0));
  EXPECT_GT(summarize(right_skew).skewness, 1.5);

  std::vector<double> symmetric;
  for (int i = 0; i < 20'000; ++i) symmetric.push_back(rng.normal());
  EXPECT_NEAR(summarize(symmetric).skewness, 0.0, 0.1);
}

TEST(Summarize, KurtosisOfNormalIsNearZero) {
  support::Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 50'000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(summarize(xs).kurtosis, 0.0, 0.15);
}

TEST(Quantile, MedianOfOddSample) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(Quantile, ExtremesAreMinMax) {
  const std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, OutOfRangeThrows) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)quantile(xs, 1.5), support::Error);
  EXPECT_THROW((void)quantile(xs, -0.1), support::Error);
}

class QuantileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantileMonotoneTest, QuantileIsMonotoneInQ) {
  support::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(0.0, 3.0));
  const double q = GetParam();
  EXPECT_LE(quantile(xs, q), quantile(xs, std::min(1.0, q + 0.1)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileMonotoneTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9));

TEST(OnlineStats, MatchesBatchSummary) {
  support::Rng rng(13);
  std::vector<double> xs;
  OnlineStats os;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.normal(2.0, 5.0);
    xs.push_back(x);
    os.add(x);
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(os.count(), s.count);
  EXPECT_NEAR(os.mean(), s.mean, 1e-10);
  EXPECT_NEAR(os.variance(), s.variance, 1e-8);
}

/// Bitwise equality of two accumulators: count, mean, variance.
::testing::AssertionResult same_bits(const OnlineStats& a,
                                     const OnlineStats& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (a.count() == b.count() && bits(a.mean()) == bits(b.mean()) &&
      bits(a.variance()) == bits(b.variance())) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "count " << a.count() << " vs " << b.count() << ", mean "
         << a.mean() << " vs " << b.mean() << ", variance " << a.variance()
         << " vs " << b.variance();
}

TEST(OnlineStats, SpanAddIsBitIdenticalToElementwiseAdd) {
  support::Rng rng(29);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.normal(3.0, 2.0);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  // Element-wise adds follow the textbook recurrence, in this operation
  // order, after every prefix; prefix[k] is the state after k adds.
  std::vector<OnlineStats> prefix(xs.size() + 1);
  double n = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    prefix[k + 1] = prefix[k];
    prefix[k + 1].add(xs[k]);
    n += 1.0;
    const double delta = xs[k] - mean;
    mean += delta / n;
    m2 += delta * (xs[k] - mean);
    ASSERT_EQ(bits(prefix[k + 1].mean()), bits(mean)) << "after " << k + 1;
    ASSERT_EQ(bits(prefix[k + 1].variance()), bits(k > 0 ? m2 / (n - 1.0) : 0.0))
        << "after " << k + 1;
  }

  // One span into empty stats, at every length (0 is the empty span).
  const std::span<const double> all(xs);
  for (std::size_t k = 0; k <= xs.size(); ++k) {
    OnlineStats spanned;
    spanned.add(all.first(k));
    ASSERT_TRUE(same_bits(spanned, prefix[k])) << "span of " << k;
  }

  // Earlier single adds, then spans of uneven widths, then an empty span.
  OnlineStats mixed;
  for (std::size_t i = 0; i < 37; ++i) mixed.add(xs[i]);
  mixed.add(all.subspan(37, 500));
  EXPECT_TRUE(same_bits(mixed, prefix[537]));
  mixed.add(all.subspan(537));
  EXPECT_TRUE(same_bits(mixed, prefix[xs.size()]));
  mixed.add(std::span<const double>());
  EXPECT_TRUE(same_bits(mixed, prefix[xs.size()]));
}

TEST(OnlineStats, MergeEqualsSingleStream) {
  support::Rng rng(17);
  OnlineStats merged;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 5'000; ++i) {
    const double x = rng.normal();
    merged.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), merged.count());
  EXPECT_NEAR(a.mean(), merged.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), merged.variance(), 1e-8);
}

TEST(OnlineStats, MergeWithEmptyIsNoop) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Autocorrelation, WhiteNoiseNearZero) {
  support::Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 20'000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(autocorrelation(xs, 1), 0.0, 0.02);
}

TEST(Autocorrelation, Ar1IsPositive) {
  support::Rng rng(23);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 20'000; ++i) {
    xs.push_back(0.9 * xs.back() + rng.normal());
  }
  EXPECT_GT(autocorrelation(xs, 1), 0.8);
}

TEST(FractionWithin, CountsClosedInterval) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(fraction_within(xs, 2.0, 4.0), 0.6);
  EXPECT_DOUBLE_EQ(fraction_within(xs, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_within(xs, 6.0, 7.0), 0.0);
}

TEST(VarianceHelpers, TinySamples) {
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(variance(two), 2.0);
}

TEST(P2QuantileSketch, ExactForFirstFiveObservations) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);  // empty
  std::vector<double> xs;
  for (const double x : {7.0, 1.0, 5.0, 3.0, 9.0}) {
    q.add(x);
    xs.push_back(x);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_DOUBLE_EQ(q.value(), quantile_sorted(sorted, 0.5))
        << "after " << xs.size() << " observations";
  }
  EXPECT_EQ(q.count(), 5u);
  EXPECT_DOUBLE_EQ(q.p(), 0.5);
}

TEST(P2QuantileSketch, ConvergesToBatchQuantileOnNormalStream) {
  support::Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  for (const double p : {0.5, 0.9, 0.95, 0.99}) {
    P2Quantile sketch(p);
    for (const double x : xs) sketch.add(x);
    const double exact = quantile(xs, p);
    // O(1)-memory estimate tracks the batch quantile to a few percent
    // of the distribution's sd.
    EXPECT_NEAR(sketch.value(), exact, 0.15) << "p=" << p;
    EXPECT_EQ(sketch.count(), xs.size());
  }
}

TEST(P2QuantileSketch, TracksShiftedStream) {
  // The markers adapt when the stream's distribution moves.
  support::Rng rng(37);
  P2Quantile sketch(0.95);
  for (int i = 0; i < 2000; ++i) sketch.add(rng.normal(0.0, 1.0));
  for (int i = 0; i < 20000; ++i) sketch.add(rng.normal(50.0, 1.0));
  // Dominated by the shifted regime: its 95th percentile is ~51.6.
  EXPECT_NEAR(sketch.value(), 51.6, 1.5);
}

TEST(P2QuantileSketch, RejectsDegenerateProbabilities) {
  EXPECT_THROW(P2Quantile(0.0), support::Error);
  EXPECT_THROW(P2Quantile(1.0), support::Error);
  EXPECT_THROW(P2Quantile(-0.5), support::Error);
}

}  // namespace
}  // namespace sspred::stats
