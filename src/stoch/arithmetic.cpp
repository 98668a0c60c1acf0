#include "stoch/arithmetic.hpp"

#include <cmath>
#include <string>

#include "support/error.hpp"

namespace sspred::stoch {

StochasticValue add_point(const StochasticValue& x, double p) {
  return StochasticValue(x.mean() + p, x.halfwidth());
}

StochasticValue scale(const StochasticValue& x, double p) {
  return StochasticValue(x.mean() * p, std::abs(p) * x.halfwidth());
}

StochasticValue sub(const StochasticValue& x, const StochasticValue& y,
                    Dependence dep) {
  return add(x, scale(y, -1.0), dep);
}

StochasticValue sum(std::span<const StochasticValue> xs, Dependence dep) {
  StochasticValue acc;  // zero point value is the additive identity
  for (const auto& x : xs) acc = add(acc, x, dep);
  return acc;
}

void detail::raise_div_spans_zero(const StochasticValue& x,
                                  const StochasticValue& y) {
  support::raise("!y.contains(0.0)",
                 "cannot divide " + x.to_string() + " by " + y.to_string() +
                     ": the denominator's range [" +
                     std::to_string(y.lower()) + ", " +
                     std::to_string(y.upper()) +
                     "] spans zero, so the quotient has no meaningful "
                     "normal approximation",
                 __FILE__, __LINE__);
}

StochasticValue inverse(const StochasticValue& y) {
  SSPRED_REQUIRE(!y.contains(0.0),
                 "cannot invert " + y.to_string() + ": its range [" +
                     std::to_string(y.lower()) + ", " +
                     std::to_string(y.upper()) +
                     "] spans zero, so 1/Y has no meaningful normal "
                     "approximation (tighten the spread or shift the mean "
                     "away from zero)");
  // 1 / Y as a quotient of the unit point: under the related rule the
  // product step adds only zero terms to |b / Y^2|, so this is exactly
  // the inverse's moments.
  double mean = 1.0;
  double half = 0.0;
  div_step(mean, half, y, Dependence::kRelated);
  return StochasticValue(mean, half);
}

StochasticValue add_correlated(const StochasticValue& x,
                               const StochasticValue& y, double rho) {
  SSPRED_REQUIRE(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1,1]");
  const double a = x.halfwidth();
  const double b = y.halfwidth();
  const double var = a * a + b * b + 2.0 * rho * a * b;
  return StochasticValue(x.mean() + y.mean(), std::sqrt(std::max(var, 0.0)));
}

StochasticValue mul_correlated(const StochasticValue& x,
                               const StochasticValue& y, double rho) {
  SSPRED_REQUIRE(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1,1]");
  if (x.mean() == 0.0 || y.mean() == 0.0) return StochasticValue();
  const double a = x.halfwidth();
  const double b = y.halfwidth();
  const double ta = y.mean() * a;
  const double tb = x.mean() * b;
  const double var = ta * ta + tb * tb + 2.0 * rho * ta * tb;
  return StochasticValue(x.mean() * y.mean(),
                         std::sqrt(std::max(var, 0.0)));
}

StochasticValue operator+(const StochasticValue& x, const StochasticValue& y) {
  return add(x, y, Dependence::kUnrelated);
}

StochasticValue operator-(const StochasticValue& x, const StochasticValue& y) {
  return sub(x, y, Dependence::kUnrelated);
}

StochasticValue operator*(const StochasticValue& x, const StochasticValue& y) {
  return mul(x, y, Dependence::kUnrelated);
}

StochasticValue operator/(const StochasticValue& x, const StochasticValue& y) {
  return div(x, y, Dependence::kUnrelated);
}

StochasticValue operator-(const StochasticValue& x) { return scale(x, -1.0); }

}  // namespace sspred::stoch
