#include "learn/quantile.hpp"

#include <algorithm>
#include <cmath>

namespace sspred::learn {
namespace {

/// The tracked levels, ascending.
constexpr std::array<double, 3> kTaus{0.05, 0.5, 0.95};
/// Step size as a fraction of the adaptive scale.
constexpr double kLearningRate = 0.08;
/// EWMA weight of the |r - median| scale estimate.
constexpr double kScaleForgetting = 0.95;

}  // namespace

void StreamingQuantiles::add(double r) {
  if (count_ == 0) {
    // Initialize every marker at the first observation; the gradient
    // steps separate them from there.
    q_.fill(r);
    scale_ = std::max(std::abs(r) * 0.1, 1e-12);
    ++count_;
    return;
  }
  const double dev = std::abs(r - q_[1]);
  scale_ = std::max(
      kScaleForgetting * scale_ + (1.0 - kScaleForgetting) * dev, 1e-12);
  const double step = kLearningRate * scale_;
  for (std::size_t i = 0; i < q_.size(); ++i) {
    const double tau = kTaus[i];
    q_[i] += step * (r < q_[i] ? tau - 1.0 : tau);
  }
  ++count_;
}

std::array<double, 3> StreamingQuantiles::quantiles() const {
  // Independent gradient trackers can transiently cross right after a
  // regime shift, and a crossed interval (upper < lower) would be
  // nonsense downstream; the levels are ascending, so sorting the
  // estimates restores their order.
  std::array<double, 3> out = q_;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sspred::learn
