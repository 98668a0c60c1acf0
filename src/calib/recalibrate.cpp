#include "calib/recalibrate.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace sspred::calib {

ConformalRecalibrator::ConformalRecalibrator(RecalibratorOptions options)
    : options_(options) {
  SSPRED_REQUIRE(options_.nominal > 0.0 && options_.nominal < 1.0,
                 "nominal coverage must be in (0, 1)");
  SSPRED_REQUIRE(options_.window >= 1, "window must hold at least one score");
  SSPRED_REQUIRE(options_.min_samples >= 1, "min_samples must be >= 1");
  SSPRED_REQUIRE(
      options_.min_scale > 0.0 && options_.min_scale <= options_.max_scale,
      "need 0 < min_scale <= max_scale");
}

void ConformalRecalibrator::record(const std::string& model_id,
                                   const stoch::StochasticValue& predicted,
                                   double observed) {
  // Near-degenerate intervals are as unusable as exact points: a
  // half-width of 1e-300 (possible from an almost-deterministic binding)
  // would blow the normalized score up to inf/NaN, and one such score
  // poisons the window quantile for `window` subsequent predictions.
  // Floor the half-width relative to the prediction's magnitude and
  // refuse any score that still fails to come out finite.
  const double floor_hw =
      std::max(1e-9 * std::max(std::abs(predicted.mean()), 1.0), 1e-300);
  if (predicted.halfwidth() < floor_hw) return;
  const double score =
      std::abs(observed - predicted.mean()) / predicted.halfwidth();
  if (!std::isfinite(score)) return;
  const std::lock_guard lock(mutex_);
  Window& w = per_model_[model_id];
  if (w.ring.empty()) w.ring.assign(options_.window, 0.0);
  w.ring[w.pos] = score;
  w.pos = (w.pos + 1) % w.ring.size();
  if (w.filled < w.ring.size()) ++w.filled;
}

double ConformalRecalibrator::window_scale(const Window& window) const {
  if (window.filled < options_.min_samples) return 1.0;
  std::vector<double> scores(window.ring.begin(),
                             window.ring.begin() +
                                 static_cast<std::ptrdiff_t>(window.filled));
  std::sort(scores.begin(), scores.end());
  // Split-conformal rank: the ceil((n+1)·p)-th smallest score; beyond the
  // sample it degenerates to the window max (then the clamp applies).
  const auto n = scores.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil((static_cast<double>(n) + 1.0) * options_.nominal));
  const double q = scores[std::min(rank, n) - 1];
  return std::clamp(q, options_.min_scale, options_.max_scale);
}

double ConformalRecalibrator::scale(const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  const auto it = per_model_.find(model_id);
  if (it == per_model_.end()) return 1.0;
  return window_scale(it->second);
}

stoch::StochasticValue ConformalRecalibrator::apply(
    const std::string& model_id,
    const stoch::StochasticValue& predicted) const {
  if (predicted.is_point()) return predicted;
  return stoch::StochasticValue(predicted.mean(),
                                scale(model_id) * predicted.halfwidth());
}

std::uint64_t ConformalRecalibrator::count(const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  const auto it = per_model_.find(model_id);
  return it == per_model_.end() ? 0 : it->second.filled;
}

}  // namespace sspred::calib
