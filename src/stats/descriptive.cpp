#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace sspred::stats {

Summary summarize(std::span<const double> xs) {
  SSPRED_REQUIRE(!xs.empty(), "summarize needs a non-empty sample");
  Summary s;
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  const double n = static_cast<double>(xs.size());
  s.variance = xs.size() > 1 ? m2 / (n - 1.0) : 0.0;
  s.sd = std::sqrt(s.variance);
  const double pop_var = m2 / n;
  if (pop_var > 0.0) {
    s.skewness = (m3 / n) / std::pow(pop_var, 1.5);
    s.kurtosis = (m4 / n) / (pop_var * pop_var) - 3.0;
  }
  return s;
}

double mean(std::span<const double> xs) {
  SSPRED_REQUIRE(!xs.empty(), "mean needs a non-empty sample");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double m2 = 0.0;
  for (double x : xs) m2 += (x - m) * (x - m);
  return m2 / (static_cast<double>(xs.size()) - 1.0);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double quantile_sorted(std::span<const double> sorted, double q) {
  SSPRED_REQUIRE(!sorted.empty(), "quantile needs a non-empty sample");
  SSPRED_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * (static_cast<double>(sorted.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  SSPRED_REQUIRE(xs.size() > lag, "autocorrelation lag exceeds sample size");
  const double m = mean(xs);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i + lag < xs.size(); ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  for (double x : xs) den += (x - m) * (x - m);
  return den > 0.0 ? num / den : 0.0;
}

OnlineStats OnlineStats::from_block(std::span<const double> xs) noexcept {
  constexpr std::size_t kAcc = 4;
  OnlineStats s;
  const std::size_t n = xs.size();
  if (n == 0) return s;
  // step(j, i) for every value i, with j = i mod kAcc. Each accumulator
  // is its own chain of additions in value order, so the compiler may
  // vectorize across chains without changing a bit of the result.
  const auto fold = [n](auto&& step) {
    std::size_t i = 0;
    for (; i + kAcc <= n; i += kAcc) {
      for (std::size_t j = 0; j < kAcc; ++j) step(j, i + j);
    }
    for (std::size_t j = 0; i + j < n; ++j) step(j, i + j);
  };
  const auto combine = [](const double(&a)[kAcc]) {
    return (a[0] + a[1]) + (a[2] + a[3]);
  };
  double sum[kAcc] = {};
  fold([&](std::size_t j, std::size_t i) { sum[j] += xs[i]; });
  const double mean = combine(sum) / static_cast<double>(n);
  double m2[kAcc] = {};
  fold([&](std::size_t j, std::size_t i) {
    const double d = xs[i] - mean;
    m2[j] += d * d;
  });
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = combine(m2);
  return s;
}

void OnlineStats::add(std::span<const double> xs) noexcept {
  std::size_t n = n_;
  double mu = mean_;
  double m2 = m2_;
  for (const double x : xs) {
    ++n;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
  }
  n_ = n;
  mean_ = mu;
  m2_ = m2;
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / (static_cast<double>(n_) - 1.0) : 0.0;
}

double OnlineStats::sd() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

P2Quantile::P2Quantile(double p) : p_(p) {
  SSPRED_REQUIRE(p > 0.0 && p < 1.0, "P2Quantile needs p in (0, 1)");
  const double inc[5] = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
  for (int i = 0; i < 5; ++i) {
    increments_[i] = inc[i];
    desired_[i] = 1.0 + 2.0 * (p + 1.0) * inc[i];
  }
}

void P2Quantile::add(double x) noexcept {
  if (n_total_ < 5) {
    heights_[n_total_++] = x;
    std::sort(heights_, heights_ + n_total_);
    if (n_total_ == 5) {
      for (int i = 0; i < 5; ++i) positions_[i] = double(i + 1);
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * p_;
      desired_[2] = 1.0 + 4.0 * p_;
      desired_[3] = 3.0 + 2.0 * p_;
      desired_[4] = 5.0;
    }
    return;
  }
  ++n_total_;

  // Locate the cell containing x, extending the extremes when needed.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Nudge interior markers towards their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      // Piecewise-parabolic estimate of the height at the moved position.
      const double q =
          heights_[i] +
          s / (positions_[i + 1] - positions_[i - 1]) *
              ((below + s) * (heights_[i + 1] - heights_[i]) / above +
               (above - s) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < q && q < heights_[i + 1]) {
        heights_[i] = q;
      } else {
        // Parabolic fit left the bracket: fall back to linear.
        const int j = i + (s > 0.0 ? 1 : -1);
        heights_[i] += s * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += s;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (n_total_ == 0) return 0.0;
  if (n_total_ <= 5) {
    // Exact quantile over the buffered (sorted) prefix.
    return quantile_sorted(std::span<const double>(heights_, n_total_), p_);
  }
  return heights_[2];
}

double fraction_within(std::span<const double> xs, double lo, double hi) {
  SSPRED_REQUIRE(!xs.empty(), "fraction_within needs a non-empty sample");
  std::size_t inside = 0;
  for (double x : xs) {
    if (x >= lo && x <= hi) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(xs.size());
}

}  // namespace sspred::stats
