// RlsPredictor — online recursive least squares with a forgetting factor.
//
// The graybox half of the predictor bank (DESIGN.md §15): where the
// structural models derive ExTime from first principles (§2.3 stochastic
// calculus over work/load/bandwidth), the RLS predictor LEARNS the map
//
//     ExTime ~= theta' x
//
// from observed (feature vector, runtime) pairs, one rank-one update per
// observation — the LLSP idea (online least squares over program
// features) applied to the serving stack's own observation stream. The
// forgetting factor lambda < 1 geometrically down-weights old
// observations, so the estimate tracks parameter drift that a
// once-parameterized structural model cannot follow; the price is a
// variance floor proportional to (1 - lambda).
//
// The predictor also keeps a forgetting-weighted estimate of the
// innovation variance (the one-step-ahead squared prediction error),
// which the bank combines with the streaming residual quantiles
// (quantile.hpp) into a full distributional prediction.
//
// Everything here is deterministic: a fixed observation sequence yields
// bit-identical coefficients on every run and build. Not thread-safe;
// the PredictorBank serializes access per model entry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sspred::learn {

struct RlsOptions {
  /// Forgetting factor in (0, 1]: weight of an observation `k` steps in
  /// the past is lambda^k. 1.0 = ordinary (infinite-memory) RLS.
  double forgetting = 0.98;
};

class RlsPredictor {
 public:
  /// `dim` is the fixed feature-vector length (see feature.hpp).
  explicit RlsPredictor(std::size_t dim, RlsOptions options = {});

  /// One recursive update with observation (x, y). x.size() must equal
  /// dim().
  void update(std::span<const double> x, double y);

  /// theta' x — the learned conditional mean.
  [[nodiscard]] double predict(std::span<const double> x) const;

  /// Forgetting-weighted estimate of the squared one-step-ahead
  /// prediction error (0 until the second observation).
  [[nodiscard]] double innovation_variance() const noexcept {
    return innovation_var_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::span<const double> coefficients() const noexcept {
    return theta_;
  }

 private:
  std::size_t dim_;
  RlsOptions options_;
  std::vector<double> theta_;  ///< learned coefficients, size dim
  std::vector<double> p_;      ///< covariance, row-major dim x dim
  std::vector<double> px_;     ///< scratch: P x
  std::uint64_t count_ = 0;
  double innovation_var_ = 0.0;
};

}  // namespace sspred::learn
