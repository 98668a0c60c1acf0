// Structural performance models (paper §2.2, [Sch97]).
//
// A structural model is an expression DAG over component models and model
// parameters. Leaves are constants (point or stochastic) and named
// parameters; inner nodes are sums, products, quotients, group Max/Min and
// per-iteration repetition. A model can be evaluated three ways:
//   * evaluate()      — the stochastic calculus of §2.3 (the contribution);
//   * evaluate_point()— conventional point-valued prediction (the baseline);
//   * monte_carlo()   — ground truth by sampling parameters, for validation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stoch/arithmetic.hpp"
#include "stoch/group_ops.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::model {

namespace ir {
class Builder;
}  // namespace ir

/// Parameter bindings for one evaluation.
class Environment {
 public:
  /// Binds (or rebinds) a parameter.
  void bind(const std::string& name, stoch::StochasticValue value);

  /// Throws sspred::support::Error naming the parameter and listing the
  /// bound names when `name` is unbound.
  [[nodiscard]] const stoch::StochasticValue& lookup(
      const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const noexcept;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, stoch::StochasticValue> bindings_;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Per-trial sample cache: a parameter appearing in several places draws
/// one value per trial (it is one physical quantity).
using SampleCache = std::map<std::string, double>;

class Expr {
 public:
  virtual ~Expr() = default;

  /// Stochastic evaluation under the §2.3 calculus.
  [[nodiscard]] virtual stoch::StochasticValue evaluate(
      const Environment& env) const = 0;

  /// Conventional point evaluation (all parameters collapse to means).
  [[nodiscard]] virtual double evaluate_point(const Environment& env) const = 0;

  /// One Monte-Carlo trial: parameters are drawn from their stochastic
  /// distributions (cached per name), operators applied exactly.
  [[nodiscard]] virtual double sample(const Environment& env,
                                      SampleCache& cache,
                                      support::Rng& rng) const = 0;

  /// Human-readable form (for documentation and debugging).
  [[nodiscard]] virtual std::string to_string() const = 0;

  /// Collects parameter names into `out` (duplicates possible).
  virtual void collect_params(std::vector<std::string>& out) const = 0;

  /// Emits this node into the flat-IR builder, children first (post-order),
  /// and returns the emitted node id. Implementation detail of
  /// model::compile() (compile.hpp) — call that instead.
  virtual std::uint32_t lower(ir::Builder& builder) const = 0;

  /// All distinct parameter names in the expression.
  [[nodiscard]] std::vector<std::string> parameters() const;
};

/// Leaf: a constant (point or stochastic) value.
[[nodiscard]] ExprPtr constant(stoch::StochasticValue v);
/// Leaf: a named parameter resolved from the Environment.
[[nodiscard]] ExprPtr param(std::string name);

/// Sum of terms under one dependence regime.
[[nodiscard]] ExprPtr sum(std::vector<ExprPtr> terms,
                          stoch::Dependence dep = stoch::Dependence::kUnrelated);
/// Binary convenience.
[[nodiscard]] ExprPtr add(ExprPtr a, ExprPtr b,
                          stoch::Dependence dep = stoch::Dependence::kUnrelated);
/// Product of factors under one dependence regime.
[[nodiscard]] ExprPtr prod(std::vector<ExprPtr> factors,
                           stoch::Dependence dep = stoch::Dependence::kUnrelated);
[[nodiscard]] ExprPtr mul(ExprPtr a, ExprPtr b,
                          stoch::Dependence dep = stoch::Dependence::kUnrelated);
/// Quotient numerator / denominator.
[[nodiscard]] ExprPtr quotient(ExprPtr numerator, ExprPtr denominator,
                               stoch::Dependence dep =
                                   stoch::Dependence::kUnrelated);
/// Group maximum / minimum under a policy (paper §2.3.3).
[[nodiscard]] ExprPtr vmax(std::vector<ExprPtr> items,
                           stoch::ExtremePolicy policy =
                               stoch::ExtremePolicy::kLargestMean);
[[nodiscard]] ExprPtr vmin(std::vector<ExprPtr> items,
                           stoch::ExtremePolicy policy =
                               stoch::ExtremePolicy::kLargestMean);
/// `iterations` repetitions of `body` summed (the paper's Σ over NumIts).
/// Stochastically: related -> n·X ± n·a; unrelated -> n·X ± sqrt(n)·a.
[[nodiscard]] ExprPtr iterate(ExprPtr body, std::size_t iterations,
                              stoch::Dependence dep =
                                  stoch::Dependence::kRelated);

// Operator sugar over ExprPtr for the UNRELATED regime (use the named
// builders when the related/conservative rules or explicit policies are
// intended).
[[nodiscard]] inline ExprPtr operator+(ExprPtr a, ExprPtr b) {
  return add(std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr operator*(ExprPtr a, ExprPtr b) {
  return mul(std::move(a), std::move(b));
}
[[nodiscard]] inline ExprPtr operator/(ExprPtr a, ExprPtr b) {
  return quotient(std::move(a), std::move(b));
}

/// Full Monte-Carlo evaluation: `trials` samples summarized as mean ± 2sd.
/// Routes through the compiled flat IR (one compile, then the blocked
/// trial-major engine — see ir::kBlockTrials in model/ir.hpp for its RNG
/// stream contract). Expr::sample draws the same distribution one trial
/// at a time and is the reference the engine is checked against.
[[nodiscard]] stoch::StochasticValue monte_carlo(const Expr& expr,
                                                 const Environment& env,
                                                 support::Rng& rng,
                                                 std::size_t trials = 10'000);

}  // namespace sspred::model
