#include "stoch/stochastic_value.hpp"

#include <cmath>
#include <ostream>

#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace sspred::stoch {

StochasticValue StochasticValue::point(double v) noexcept {
  return StochasticValue(v);
}

StochasticValue StochasticValue::from_percent(double mean, double percent) {
  SSPRED_REQUIRE(percent >= 0.0, "percentage range must be >= 0");
  return StochasticValue(mean, std::abs(mean) * percent / 100.0);
}

StochasticValue StochasticValue::from_mean_sd(double mean, double sd) {
  SSPRED_REQUIRE(sd >= 0.0, "standard deviation must be >= 0");
  return StochasticValue(mean, 2.0 * sd);
}

StochasticValue StochasticValue::from_sample(std::span<const double> xs) {
  const auto s = stats::summarize(xs);
  return from_mean_sd(s.mean, s.sd);
}

double StochasticValue::relative() const {
  SSPRED_REQUIRE(mean_ != 0.0, "relative halfwidth undefined for zero mean");
  return std::abs(half_ / mean_);
}

stats::Normal StochasticValue::to_normal() const {
  SSPRED_REQUIRE(half_ > 0.0, "point value has no normal distribution");
  return stats::Normal(mean_, sd());
}

double StochasticValue::out_of_range_distance(double v) const noexcept {
  if (contains(v)) return 0.0;
  return v < lower() ? lower() - v : v - upper();
}

std::string StochasticValue::to_string(int precision) const {
  if (is_point()) return support::fmt(mean_, precision);
  return support::fmt_pm(mean_, half_, precision);
}

std::ostream& operator<<(std::ostream& os, const StochasticValue& v) {
  return os << v.to_string();
}

}  // namespace sspred::stoch
