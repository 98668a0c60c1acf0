// The paper's Table 2: arithmetic combination rules for stochastic values.
//
// Two regimes (paper §2.3):
//  * related   — the underlying distributions have a causal connection
//                (e.g. latency and bandwidth under shared traffic). The
//                rules are conservative error sums so the result is never
//                "over-smoothed".
//  * unrelated — independent quantities; the rules are the probabilistic
//                root-sum-of-squares forms.
//
// Because normals are closed under linear combination, sums/differences of
// normal stochastic values are normal; products are long-tailed but are
// approximated as normal per §2.1.1.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "stoch/stochastic_value.hpp"

namespace sspred::stoch {

/// Whether two stochastic operands share a causal connection (paper §2.3.1).
enum class Dependence {
  kRelated,
  kUnrelated,
};

/// (X ± a) + P = (X+P) ± a — point shift leaves the spread alone.
[[nodiscard]] StochasticValue add_point(const StochasticValue& x, double p);

/// P·(X ± a) = PX ± |P|a — point scale scales the spread.
[[nodiscard]] StochasticValue scale(const StochasticValue& x, double p);

// --- Table 2, written once -------------------------------------------------
//
// Each rule is one step on raw moments: `mean` and `half` hold the running
// value, and the step combines one more operand into them. The checked
// operations below apply one step and build one StochasticValue. The
// compiled walk (model/ir.cpp) and the `Expr` tree (model/expr.cpp) fold
// the steps across a group node's operands and check once per node, and
// the constant folder (model/compile.cpp) applies them to point values,
// so every evaluator computes the same bits.

/// One step of a sum: (mean ± half) + y under `dep`:
///  related:   (X+Y) ± (half + b)            [conservative]
///  unrelated: (X+Y) ± sqrt(half^2 + b^2)    [RSS]
inline void add_step(double& mean, double& half, const StochasticValue& y,
                     Dependence dep) noexcept {
  mean += y.mean();
  const double b = y.halfwidth();
  half = dep == Dependence::kRelated ? half + b
                                     : std::sqrt(half * half + b * b);
}

/// One step of a product: (mean ± half)·(y_mean ± y_half) under `dep`:
///  related:   XY ± (|half·Y| + |b·X| + |half·b|)
///  unrelated: XY ± |XY|·sqrt((half/X)^2 + (b/Y)^2)
/// A zero mean on either side makes the product the zero point value
/// (paper §2.3.2).
inline void mul_step(double& mean, double& half, double y_mean, double y_half,
                     Dependence dep) noexcept {
  if (mean == 0.0 || y_mean == 0.0) {
    mean = 0.0;
    half = 0.0;
    return;
  }
  const double m = mean * y_mean;
  if (dep == Dependence::kRelated) {
    half = std::abs(half * y_mean) + std::abs(y_half * mean) +
           std::abs(half * y_half);
  } else {
    const double ra = half / mean;
    const double rb = y_half / y_mean;
    half = std::abs(m) * std::sqrt(ra * ra + rb * rb);
  }
  mean = m;
}

/// One step of a quotient: a product step by the first-order
/// (delta-method) moments of 1/Y, (1/Y) ± |b / Y^2|. Unchecked: see div()
/// for the denominator's precondition.
inline void div_step(double& mean, double& half, const StochasticValue& y,
                     Dependence dep) noexcept {
  mul_step(mean, half, 1.0 / y.mean(),
           std::abs(y.halfwidth() / (y.mean() * y.mean())), dep);
}

/// n repetitions of (mean ± half) summed (the paper's Σ over NumIts):
///  related:   nX ± n·half        [the same slow machine stays slow]
///  unrelated: nX ± sqrt(n)·half  [iteration noise averages out]
inline void repeat_step(double& mean, double& half, std::size_t n,
                        Dependence dep) noexcept {
  const double reps = static_cast<double>(n);
  half = dep == Dependence::kRelated ? reps * half : std::sqrt(reps) * half;
  mean *= reps;
}

/// Sum of two stochastic values under the given dependence (add_step).
[[nodiscard]] inline StochasticValue add(const StochasticValue& x,
                                         const StochasticValue& y,
                                         Dependence dep) {
  double mean = x.mean();
  double half = x.halfwidth();
  add_step(mean, half, y, dep);
  return StochasticValue(mean, half);
}

/// Difference: addition with the second mean negated (paper §2.3.1);
/// spreads combine exactly as in add().
[[nodiscard]] StochasticValue sub(const StochasticValue& x,
                                  const StochasticValue& y, Dependence dep);

/// Sum over a sequence under one dependence regime, folded from the zero
/// point value.
[[nodiscard]] StochasticValue sum(std::span<const StochasticValue> xs,
                                  Dependence dep);

/// Product of two stochastic values under the given dependence (mul_step,
/// including the zero-mean rule).
[[nodiscard]] inline StochasticValue mul(const StochasticValue& x,
                                         const StochasticValue& y,
                                         Dependence dep) {
  double mean = x.mean();
  double half = x.halfwidth();
  mul_step(mean, half, y.mean(), y.halfwidth(), dep);
  return StochasticValue(mean, half);
}

namespace detail {
/// Throws div()'s error for a denominator whose range spans zero (out of
/// line: the cold path).
[[noreturn]] void raise_div_spans_zero(const StochasticValue& x,
                                       const StochasticValue& y);
}  // namespace detail

/// Division x / y: mul(x, inverse(y), dep), as one div_step.
/// PRECONDITION: the denominator's range [Y-b, Y+b] must exclude zero;
/// violations throw sspred::support::Error naming both operands and the
/// denominator's range.
[[nodiscard]] inline StochasticValue div(const StochasticValue& x,
                                         const StochasticValue& y,
                                         Dependence dep) {
  if (y.contains(0.0)) detail::raise_div_spans_zero(x, y);
  double mean = x.mean();
  double half = x.halfwidth();
  div_step(mean, half, y, dep);
  return StochasticValue(mean, half);
}

/// Multiplicative inverse of Y ± b via the first-order delta method:
/// (1/Y) ± |b / Y^2|. PRECONDITION: the range [Y-b, Y+b] must exclude
/// zero — a denominator that can be zero has no meaningful normal
/// approximation of its inverse (the true distribution of 1/Y is
/// heavy-tailed with no finite moments). Violations throw
/// sspred::support::Error naming the offending value and its range.
///
/// Note: the paper's footnote 5 writes the inverse as "Y^-1 ± b^-1", which
/// does not reduce to the point-value rule as b -> 0; we follow standard
/// error propagation instead (documented in DESIGN.md).
[[nodiscard]] StochasticValue inverse(const StochasticValue& y);

/// `body` repeated n times and summed (repeat_step).
[[nodiscard]] inline StochasticValue repeat(const StochasticValue& body,
                                            std::size_t n, Dependence dep) {
  double mean = body.mean();
  double half = body.halfwidth();
  repeat_step(mean, half, n, dep);
  return StochasticValue(mean, half);
}

/// Generalization of the paper's two regimes to an explicit correlation
/// coefficient rho in [-1, 1]:
///   Var[X+Y] = Var[X] + Var[Y] + 2·rho·SD[X]·SD[Y].
/// rho = 0 reduces to the unrelated RSS rule; rho = 1 to the conservative
/// related sum.
[[nodiscard]] StochasticValue add_correlated(const StochasticValue& x,
                                             const StochasticValue& y,
                                             double rho);

/// First-order (delta-method) product of correlated operands:
///   Var[XY] ≈ (Y·sx)^2 + (X·sy)^2 + 2·rho·XY·sx·sy.
/// rho = 0 matches the unrelated rule; the related rule remains the
/// conservative upper bound for rho = 1.
[[nodiscard]] StochasticValue mul_correlated(const StochasticValue& x,
                                             const StochasticValue& y,
                                             double rho);

// Operator sugar for the UNRELATED regime (the common case for combining
// measurements of different quantities). Use the named functions when the
// related/conservative rules are intended.
[[nodiscard]] StochasticValue operator+(const StochasticValue& x,
                                        const StochasticValue& y);
[[nodiscard]] StochasticValue operator-(const StochasticValue& x,
                                        const StochasticValue& y);
[[nodiscard]] StochasticValue operator*(const StochasticValue& x,
                                        const StochasticValue& y);
[[nodiscard]] StochasticValue operator/(const StochasticValue& x,
                                        const StochasticValue& y);
[[nodiscard]] StochasticValue operator-(const StochasticValue& x);

}  // namespace sspred::stoch
