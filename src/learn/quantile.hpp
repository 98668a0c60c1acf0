// StreamingQuantiles — online quantile tracking by pinball-loss gradient.
//
// The distributional half of a learned prediction (DESIGN.md §15,
// following Xu et al.'s distributional-outcome prediction for HPC
// variability): instead of assuming the runtime residual is normal, track
// its quantiles directly — the three levels 0.05, 0.5 and 0.95 the
// PredictorBank reads as q05/q50/q95. Each level tau follows the classic
// stochastic subgradient of the pinball (quantile) loss,
//
//     q_tau += step * (tau - 1{r < q_tau})
//
// whose fixed point is the true tau-quantile of the residual stream. The
// step is a constant fraction (0.08) of an adaptive scale (an EWMA of
// |r - q50| with weight 0.95 on the old scale), so the tracker converges
// on stationary streams but keeps adapting after a regime shift —
// exactly the drift case the predictor bank exists for.
// Unlike the P² sketch (stats/descriptive.hpp), which estimates a
// quantile of EVERYTHING it has seen, this tracker forgets.
//
// Deterministic for a fixed observation sequence; not thread-safe (the
// PredictorBank serializes access).
#pragma once

#include <array>
#include <cstdint>

namespace sspred::learn {

class StreamingQuantiles {
 public:
  /// Ingests one residual observation.
  void add(double r);

  /// The estimates for 0.05, 0.5 and 0.95, monotonicity enforced
  /// (crossing estimates — possible transiently right after a shift —
  /// are sorted into order).
  [[nodiscard]] std::array<double, 3> quantiles() const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Adaptive spread scale the steps are proportional to.
  [[nodiscard]] double scale() const noexcept { return scale_; }

 private:
  std::array<double, 3> q_{};  ///< per-tau estimates; q_[1] is the median
  double scale_ = 0.0;
  std::uint64_t count_ = 0;
};

}  // namespace sspred::learn
