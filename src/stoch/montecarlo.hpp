// Monte-Carlo cross-validation of the stochastic calculus.
//
// Each Table-2 rule is a closed form; these helpers sample the operand
// distributions, combine samples elementwise, and summarize the empirical
// result so tests and the Table-2 bench can compare closed form vs truth.
//
// Every helper samples under a stats::StopRule: sampling proceeds in the
// shared stats::next_block_width schedule and stops once the CI
// half-width of the estimated mean (for coverage: of the inside-fraction)
// meets the rule's target, or at its max-trial clamp; StopRule::fixed(n)
// draws exactly n. Each block's moments merge into the summary, as in the
// IR engine. The achieved width and sample count come back in the result
// struct, so the Table-2 bench reports "± what" instead of "ran N".
#pragma once

#include <functional>

#include "stats/sequential.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::stoch {

/// Draws one value from the normal associated with `v` (a point value
/// always yields its mean).
[[nodiscard]] double sample(const StochasticValue& v, support::Rng& rng);

/// An adaptively stopped empirical summary: the value plus how much
/// sampling the stop rule actually took and what precision it bought.
struct EmpiricalResult {
  StochasticValue value;      ///< mean ± 2sd over the drawn samples
  std::size_t samples = 0;    ///< samples actually drawn
  double ci_halfwidth = 0.0;  ///< achieved CI half-width of the mean
  bool converged = true;      ///< false: target unmet at the max clamp
};

/// Empirically combines two stochastic values with independent sampling:
/// draws pairs, applies `op`, and summarizes the results as mean ± 2sd.
[[nodiscard]] EmpiricalResult empirical_combine(
    const StochasticValue& x, const StochasticValue& y,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule);

/// Like empirical_combine, but the operands are comonotonic (driven by one
/// shared standard-normal draw) — the sampling analogue of "related"
/// distributions with perfect positive coupling.
[[nodiscard]] EmpiricalResult empirical_combine_related(
    const StochasticValue& x, const StochasticValue& y,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule);

/// Gaussian-copula sampling at an explicit correlation rho in [-1, 1]:
/// z_y = rho·z_x + sqrt(1-rho²)·z'. Ground truth for the *_correlated
/// closed forms.
[[nodiscard]] EmpiricalResult empirical_combine_correlated(
    const StochasticValue& x, const StochasticValue& y, double rho,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule);

/// Fraction of samples of `v`'s distribution that land inside `range`,
/// used to check ±2sd coverage claims (≈95% for true normals):
/// `value.mean()` is the inside-fraction and the stop rule targets the CI
/// half-width of that fraction (binomial, from the moments of the 0/1
/// samples). `value`'s halfwidth is 2sd of the indicator — use
/// `ci_halfwidth` for the precision of the fraction itself.
[[nodiscard]] EmpiricalResult empirical_coverage(const StochasticValue& v,
                                                 const StochasticValue& range,
                                                 support::Rng& rng,
                                                 const stats::StopRule& rule);

}  // namespace sspred::stoch
