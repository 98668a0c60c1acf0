// Group operations over stochastic values (paper §2.3.3).
//
// The paper leaves Max/Min policy situation-dependent: "Max could be
// calculated by choosing the largest mean of the stochastic value inputs,
// or by selecting the stochastic value with the largest magnitude value in
// its entire range". We implement both policies, plus Clark's classical
// moment-matching approximation of the exact maximum of Gaussians, which
// the ablation bench compares against the paper's two heuristics.
#pragma once

#include <span>

#include "stoch/arithmetic.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::stoch {

/// How a group Max (or Min) over stochastic values is resolved.
enum class ExtremePolicy {
  kLargestMean,   ///< pick the operand with the largest mean
  kLargestUpper,  ///< pick the operand with the largest upper bound
  kClark,         ///< Clark (1961) Gaussian moment-matching of max()
};

/// Clark's approximation of max(X, Y) for X~N(m1,s1^2), Y~N(m2,s2^2) with
/// correlation rho: matches the first two moments of the true maximum and
/// returns them as a (approximately normal) stochastic value.
[[nodiscard]] StochasticValue clark_max(const StochasticValue& x,
                                        const StochasticValue& y,
                                        double rho = 0.0);

/// One step of a group Max: the larger of `acc` and `x` under `policy`.
/// kLargestMean / kLargestUpper keep `acc` on a tie (so a fold picks the
/// earliest operand); kClark is clark_max(acc, x).
[[nodiscard]] inline StochasticValue smax(const StochasticValue& acc,
                                          const StochasticValue& x,
                                          ExtremePolicy policy) {
  switch (policy) {
    case ExtremePolicy::kLargestMean:
      return x.mean() > acc.mean() ? x : acc;
    case ExtremePolicy::kLargestUpper:
      return x.upper() > acc.upper() ? x : acc;
    case ExtremePolicy::kClark:
      break;
  }
  return clark_max(acc, x);
}

/// One step of a group Min, defined as -Max of the negated operands.
/// Negation is exact, so the selecting policies pick the smaller mean
/// (resp. lower bound) directly; kClark folds clark_max on the negations.
[[nodiscard]] inline StochasticValue smin(const StochasticValue& acc,
                                          const StochasticValue& x,
                                          ExtremePolicy policy) {
  switch (policy) {
    case ExtremePolicy::kLargestMean:
      return x.mean() < acc.mean() ? x : acc;
    case ExtremePolicy::kLargestUpper:
      return x.lower() < acc.lower() ? x : acc;
    case ExtremePolicy::kClark:
      break;
  }
  return -clark_max(-acc, -x);
}

/// Max over a non-empty group: the pairwise smax() folded from the first
/// operand.
[[nodiscard]] StochasticValue smax(std::span<const StochasticValue> xs,
                                   ExtremePolicy policy);

/// Min over a non-empty group: the pairwise smin() folded from the first
/// operand.
[[nodiscard]] StochasticValue smin(std::span<const StochasticValue> xs,
                                   ExtremePolicy policy);

}  // namespace sspred::stoch
