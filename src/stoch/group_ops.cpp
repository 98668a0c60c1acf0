#include "stoch/group_ops.hpp"

#include <cmath>

#include "stats/distributions.hpp"
#include "support/error.hpp"

namespace sspred::stoch {

StochasticValue clark_max(const StochasticValue& x, const StochasticValue& y,
                          double rho) {
  SSPRED_REQUIRE(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1,1]");
  const double m1 = x.mean();
  const double m2 = y.mean();
  const double s1 = x.sd();
  const double s2 = y.sd();
  const double theta2 = s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2;
  if (theta2 <= 1e-30) {
    // Operands are (near) perfectly coupled: max is just the larger mean.
    return m1 >= m2 ? x : y;
  }
  const double theta = std::sqrt(theta2);
  const double alpha = (m1 - m2) / theta;
  const double phi = stats::normal_pdf(alpha);
  const double cdf_a = stats::normal_cdf(alpha);
  const double cdf_ma = stats::normal_cdf(-alpha);
  const double mean = m1 * cdf_a + m2 * cdf_ma + theta * phi;
  const double second = (m1 * m1 + s1 * s1) * cdf_a +
                        (m2 * m2 + s2 * s2) * cdf_ma +
                        (m1 + m2) * theta * phi;
  const double var = std::max(second - mean * mean, 0.0);
  return StochasticValue::from_mean_sd(mean, std::sqrt(var));
}

StochasticValue smax(std::span<const StochasticValue> xs,
                     ExtremePolicy policy) {
  SSPRED_REQUIRE(!xs.empty(), "smax needs at least one operand");
  StochasticValue acc = xs[0];
  for (const auto& x : xs.subspan(1)) acc = smax(acc, x, policy);
  return acc;
}

StochasticValue smin(std::span<const StochasticValue> xs,
                     ExtremePolicy policy) {
  SSPRED_REQUIRE(!xs.empty(), "smin needs at least one operand");
  StochasticValue acc = xs[0];
  for (const auto& x : xs.subspan(1)) acc = smin(acc, x, policy);
  return acc;
}

}  // namespace sspred::stoch
