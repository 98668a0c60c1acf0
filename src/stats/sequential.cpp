#include "stats/sequential.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sspred::stats {

std::size_t next_block_width(std::size_t done, const StopRule& rule,
                             std::size_t block_cap) noexcept {
  if (done >= rule.max_trials || block_cap == 0) return 0;
  std::size_t width = block_cap;
  if (rule.target > 0.0) {
    // Doubling checkpoints: the first block lands exactly on the min
    // clamp, then each block doubles the sample count until the cap
    // takes over. Depends only on `done` and the rule, never on the
    // sampled values, so solo and fused runs share trial counts.
    const std::size_t min_eff = std::max<std::size_t>(rule.min_trials, 2);
    width = done == 0 ? min_eff : done;
  }
  return std::min({width, block_cap, rule.max_trials - done});
}

double SequentialEstimator::ci_halfwidth() const noexcept {
  if (stats_.count() < 2) return std::numeric_limits<double>::infinity();
  return rule_.confidence_z * stats_.sd() /
         std::sqrt(static_cast<double>(stats_.count()));
}

bool SequentialEstimator::precision_met() const noexcept {
  if (rule_.target <= 0.0 || stats_.count() < 2) return false;
  const double threshold =
      rule_.relative ? rule_.target * std::abs(stats_.mean()) : rule_.target;
  return ci_halfwidth() <= threshold;
}

bool SequentialEstimator::should_stop() const noexcept {
  if (stats_.count() >= rule_.max_trials) return true;
  return stats_.count() >= rule_.min_trials && precision_met();
}

}  // namespace sspred::stats
