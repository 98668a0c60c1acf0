// Descriptive statistics: batch summaries, online (Welford) accumulation,
// quantiles and autocorrelation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sspred::stats {

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;   ///< unbiased (n-1) sample variance
  double sd = 0.0;         ///< sqrt(variance)
  double min = 0.0;
  double max = 0.0;
  double skewness = 0.0;   ///< standardized third moment (biased estimator)
  double kurtosis = 0.0;   ///< excess kurtosis (biased estimator)
};

/// Computes the full batch summary of `xs`. Requires at least one value.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Arithmetic mean. Requires a non-empty sample.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance; 0 for samples of size < 2.
[[nodiscard]] double variance(std::span<const double> xs);

/// Sample standard deviation; 0 for samples of size < 2.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy internally.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile over an already ascending-sorted sample (no copy).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Median (quantile 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// Lag-k sample autocorrelation; requires xs.size() > k.
[[nodiscard]] double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Numerically stable online accumulator (Welford): count, mean and M2.
class OnlineStats {
 public:
  /// The moments of one block of values, reduced in two passes with no
  /// per-value divide: the mean, from a sum in 4 interleaved accumulators
  /// (value i into accumulator i mod 4, combined as (a0 + a1) + (a2 + a3))
  /// divided by the count; then the sum of squared deviations about that
  /// mean, accumulated the same way. merge() the results in order to
  /// summarize a stream block by block. Empty `xs` gives an empty
  /// accumulator.
  [[nodiscard]] static OnlineStats from_block(
      std::span<const double> xs) noexcept;

  void add(double x) noexcept { add(std::span<const double>(&x, 1)); }
  /// Adds the values of `xs` in order: bit-identical to one add(x) per
  /// value, with the accumulators held in locals across the span.
  void add(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when count() < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double sd() const noexcept;

  /// Merges another accumulator into this one by Chan et al.'s pairwise
  /// update (parallel-friendly).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fraction of values inside the closed interval [lo, hi].
[[nodiscard]] double fraction_within(std::span<const double> xs, double lo,
                                     double hi);

/// Streaming estimate of one quantile in O(1) memory (the P² algorithm of
/// Jain & Chlamtac, CACM 1985): five markers track the running min, max,
/// target quantile and its two flanking quantiles, adjusted towards their
/// ideal positions with a piecewise-parabolic fit after every observation.
/// Exact for the first five observations; converges to the empirical
/// quantile as the stream grows. Shared by the calibration ledger
/// (calib/ledger.hpp), which cannot afford to buffer residual streams.
class P2Quantile {
 public:
  /// `p` is the tracked quantile, in (0, 1).
  explicit P2Quantile(double p);

  void add(double x) noexcept;

  /// Current estimate; exact while count() <= 5. Returns 0 when empty.
  [[nodiscard]] double value() const noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_total_; }
  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  double p_;
  std::size_t n_total_ = 0;
  double heights_[5] = {};   ///< marker heights (ascending)
  double positions_[5] = {}; ///< actual marker positions (1-based)
  double desired_[5] = {};   ///< desired marker positions
  double increments_[5] = {};///< desired-position increment per observation
};

}  // namespace sspred::stats
