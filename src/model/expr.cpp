#include "model/expr.hpp"

#include <algorithm>
#include <sstream>

#include "model/compile.hpp"
#include "model/ir.hpp"
#include "stoch/montecarlo.hpp"
#include "support/error.hpp"

namespace sspred::model {

using stoch::Dependence;
using stoch::ExtremePolicy;
using stoch::StochasticValue;

void Environment::bind(const std::string& name, StochasticValue value) {
  bindings_[name] = value;
}

const StochasticValue& Environment::lookup(const std::string& name) const {
  const auto it = bindings_.find(name);
  if (it == bindings_.end()) {
    std::string bound;
    for (const auto& [bound_name, _] : bindings_) {
      if (!bound.empty()) bound += ", ";
      bound += bound_name;
    }
    SSPRED_REQUIRE(false, "unbound model parameter '" + name + "'; bound: " +
                              (bound.empty() ? "(none)" : bound));
  }
  return it->second;
}

bool Environment::has(const std::string& name) const noexcept {
  return bindings_.contains(name);
}

std::vector<std::string> Environment::names() const {
  std::vector<std::string> out;
  out.reserve(bindings_.size());
  for (const auto& [name, _] : bindings_) out.push_back(name);
  return out;
}

std::vector<std::string> Expr::parameters() const {
  std::vector<std::string> out;
  collect_params(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

[[nodiscard]] const char* dep_suffix(Dependence dep) {
  return dep == Dependence::kRelated ? "~rel" : "";
}

/// Lowers a child subtree, reusing an earlier emission when the same
/// authoring node (a shared ExprPtr) was already lowered into this
/// program: deterministic walks then copy the occurrence's value instead
/// of recomputing the region. Sampling still re-executes the region, so
/// draw-per-occurrence semantics and the tree's RNG stream are preserved.
[[nodiscard]] std::uint32_t lower_child(const ExprPtr& e,
                                        ir::Builder& builder) {
  if (e.use_count() <= 1) return e->lower(builder);
  const std::uint32_t reused = builder.emit_shared_ref(e.get());
  if (reused != ir::Builder::kNoNode) return reused;
  const std::uint32_t begin = builder.next_index();
  const std::uint32_t root = e->lower(builder);
  builder.note_shared(e.get(), begin, root);
  return root;
}

class ConstExpr final : public Expr {
 public:
  explicit ConstExpr(StochasticValue v) : value_(v) {}
  StochasticValue evaluate(const Environment&) const override { return value_; }
  double evaluate_point(const Environment&) const override {
    return value_.mean();
  }
  double sample(const Environment&, SampleCache&,
                support::Rng& rng) const override {
    return stoch::sample(value_, rng);
  }
  std::string to_string() const override { return value_.to_string(); }
  void collect_params(std::vector<std::string>&) const override {}
  std::uint32_t lower(ir::Builder& builder) const override {
    return builder.emit_const(value_);
  }

 private:
  StochasticValue value_;
};

class ParamExpr final : public Expr {
 public:
  explicit ParamExpr(std::string name) : name_(std::move(name)) {}
  StochasticValue evaluate(const Environment& env) const override {
    return env.lookup(name_);
  }
  double evaluate_point(const Environment& env) const override {
    return env.lookup(name_).mean();
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    const auto it = cache.find(name_);
    if (it != cache.end()) return it->second;
    const double v = stoch::sample(env.lookup(name_), rng);
    cache.emplace(name_, v);
    return v;
  }
  std::string to_string() const override { return name_; }
  void collect_params(std::vector<std::string>& out) const override {
    out.push_back(name_);
  }
  std::uint32_t lower(ir::Builder& builder) const override {
    return builder.emit_param(name_);
  }

 private:
  std::string name_;
};

class NaryExpr : public Expr {
 public:
  explicit NaryExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {
    SSPRED_REQUIRE(!children_.empty(), "expression needs operands");
    for (const auto& c : children_) {
      SSPRED_REQUIRE(c != nullptr, "null operand");
    }
  }
  void collect_params(std::vector<std::string>& out) const override {
    for (const auto& c : children_) c->collect_params(out);
  }

 protected:
  /// Lowers every child (post-order) and returns their node ids.
  [[nodiscard]] std::vector<std::uint32_t> lower_children(
      ir::Builder& builder) const {
    std::vector<std::uint32_t> ids;
    ids.reserve(children_.size());
    for (const auto& c : children_) ids.push_back(lower_child(c, builder));
    return ids;
  }
  [[nodiscard]] std::string join(const char* op, const char* suffix) const {
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) os << " " << op << " ";
      os << children_[i]->to_string();
    }
    os << ")" << suffix;
    return os.str();
  }
  std::vector<ExprPtr> children_;
};

class SumExpr final : public NaryExpr {
 public:
  SumExpr(std::vector<ExprPtr> children, Dependence dep)
      : NaryExpr(std::move(children)), dep_(dep) {}
  StochasticValue evaluate(const Environment& env) const override {
    const StochasticValue first = children_[0]->evaluate(env);
    double mean = first.mean();
    double half = first.halfwidth();
    for (std::size_t i = 1; i < children_.size(); ++i) {
      stoch::add_step(mean, half, children_[i]->evaluate(env), dep_);
    }
    return StochasticValue(mean, half);
  }
  double evaluate_point(const Environment& env) const override {
    double acc = 0.0;
    for (const auto& c : children_) acc += c->evaluate_point(env);
    return acc;
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    double acc = 0.0;
    for (const auto& c : children_) acc += c->sample(env, cache, rng);
    return acc;
  }
  std::string to_string() const override { return join("+", dep_suffix(dep_)); }
  std::uint32_t lower(ir::Builder& builder) const override {
    return builder.emit_group(ir::OpCode::kSum, lower_children(builder), dep_,
                              ExtremePolicy::kLargestMean);
  }

 private:
  Dependence dep_;
};

class ProdExpr final : public NaryExpr {
 public:
  ProdExpr(std::vector<ExprPtr> children, Dependence dep)
      : NaryExpr(std::move(children)), dep_(dep) {}
  StochasticValue evaluate(const Environment& env) const override {
    const StochasticValue first = children_[0]->evaluate(env);
    double mean = first.mean();
    double half = first.halfwidth();
    for (std::size_t i = 1; i < children_.size(); ++i) {
      const StochasticValue y = children_[i]->evaluate(env);
      stoch::mul_step(mean, half, y.mean(), y.halfwidth(), dep_);
    }
    return StochasticValue(mean, half);
  }
  double evaluate_point(const Environment& env) const override {
    double acc = 1.0;
    for (const auto& c : children_) acc *= c->evaluate_point(env);
    return acc;
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    double acc = 1.0;
    for (const auto& c : children_) acc *= c->sample(env, cache, rng);
    return acc;
  }
  std::string to_string() const override { return join("*", dep_suffix(dep_)); }
  std::uint32_t lower(ir::Builder& builder) const override {
    return builder.emit_group(ir::OpCode::kProd, lower_children(builder), dep_,
                              ExtremePolicy::kLargestMean);
  }

 private:
  Dependence dep_;
};

class DivExpr final : public Expr {
 public:
  DivExpr(ExprPtr num, ExprPtr den, Dependence dep)
      : num_(std::move(num)), den_(std::move(den)), dep_(dep) {
    SSPRED_REQUIRE(num_ != nullptr && den_ != nullptr, "null operand");
  }
  StochasticValue evaluate(const Environment& env) const override {
    return stoch::div(num_->evaluate(env), den_->evaluate(env), dep_);
  }
  double evaluate_point(const Environment& env) const override {
    const double d = den_->evaluate_point(env);
    SSPRED_REQUIRE(d != 0.0, "point division by zero");
    return num_->evaluate_point(env) / d;
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    const double d = den_->sample(env, cache, rng);
    SSPRED_REQUIRE(d != 0.0, "sampled division by zero");
    return num_->sample(env, cache, rng) / d;
  }
  std::string to_string() const override {
    // Built up with += (not one chained operator+) to dodge GCC 12's
    // -Wrestrict false positive on `const char* + std::string&&` at -O3
    // (GCC PR 105329), which -Werror turns fatal in Release builds.
    std::string s = "(";
    s += num_->to_string();
    s += " / ";
    s += den_->to_string();
    s += ")";
    s += dep_suffix(dep_);
    return s;
  }
  void collect_params(std::vector<std::string>& out) const override {
    num_->collect_params(out);
    den_->collect_params(out);
  }
  std::uint32_t lower(ir::Builder& builder) const override {
    // Denominator region first, as sample() above draws it. The compiled
    // Monte-Carlo walk executes the buffer linearly, so emission order is
    // the blocked stream's draw order (changing it moves pinned goldens).
    // The operand ids keep num/den identity for every walk.
    const std::uint32_t den = lower_child(den_, builder);
    const std::uint32_t num = lower_child(num_, builder);
    const std::uint32_t ids[] = {num, den};
    return builder.emit_group(ir::OpCode::kDiv, ids, dep_,
                              ExtremePolicy::kLargestMean);
  }

 private:
  ExprPtr num_;
  ExprPtr den_;
  Dependence dep_;
};

class MaxExpr final : public NaryExpr {
 public:
  MaxExpr(std::vector<ExprPtr> children, ExtremePolicy policy, bool is_max)
      : NaryExpr(std::move(children)), policy_(policy), is_max_(is_max) {}
  StochasticValue evaluate(const Environment& env) const override {
    StochasticValue acc = children_[0]->evaluate(env);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      const StochasticValue v = children_[i]->evaluate(env);
      acc = is_max_ ? stoch::smax(acc, v, policy_)
                    : stoch::smin(acc, v, policy_);
    }
    return acc;
  }
  double evaluate_point(const Environment& env) const override {
    double acc = children_[0]->evaluate_point(env);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      const double v = children_[i]->evaluate_point(env);
      acc = is_max_ ? std::max(acc, v) : std::min(acc, v);
    }
    return acc;
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    double acc = children_[0]->sample(env, cache, rng);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      const double v = children_[i]->sample(env, cache, rng);
      acc = is_max_ ? std::max(acc, v) : std::min(acc, v);
    }
    return acc;
  }
  std::string to_string() const override {
    return std::string(is_max_ ? "max" : "min") + join(",", "");
  }
  std::uint32_t lower(ir::Builder& builder) const override {
    return builder.emit_group(is_max_ ? ir::OpCode::kMax : ir::OpCode::kMin,
                              lower_children(builder), Dependence::kUnrelated,
                              policy_);
  }

 private:
  ExtremePolicy policy_;
  bool is_max_;
};

class IterateExpr final : public Expr {
 public:
  IterateExpr(ExprPtr body, std::size_t iterations, Dependence dep)
      : body_(std::move(body)), n_(iterations), dep_(dep) {
    SSPRED_REQUIRE(body_ != nullptr, "null operand");
    SSPRED_REQUIRE(n_ >= 1, "iterate needs at least one iteration");
  }
  StochasticValue evaluate(const Environment& env) const override {
    return stoch::repeat(body_->evaluate(env), n_, dep_);
  }
  double evaluate_point(const Environment& env) const override {
    return static_cast<double>(n_) * body_->evaluate_point(env);
  }
  double sample(const Environment& env, SampleCache& cache,
                support::Rng& rng) const override {
    if (dep_ == Dependence::kRelated) {
      // One draw, repeated: the per-iteration quantities are coupled.
      return static_cast<double>(n_) * body_->sample(env, cache, rng);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      SampleCache fresh;  // independent draw each iteration
      acc += body_->sample(env, fresh, rng);
    }
    return acc;
  }
  std::string to_string() const override {
    return "sum_" + std::to_string(n_) + "[" + body_->to_string() + "]" +
           dep_suffix(dep_);
  }
  void collect_params(std::vector<std::string>& out) const override {
    body_->collect_params(out);
  }
  std::uint32_t lower(ir::Builder& builder) const override {
    const std::uint32_t body_begin = builder.next_index();
    (void)lower_child(body_, builder);
    return builder.emit_iterate(body_begin, n_, dep_);
  }

 private:
  ExprPtr body_;
  std::size_t n_;
  Dependence dep_;
};

}  // namespace

ExprPtr constant(StochasticValue v) { return std::make_shared<ConstExpr>(v); }

ExprPtr param(std::string name) {
  return std::make_shared<ParamExpr>(std::move(name));
}

ExprPtr sum(std::vector<ExprPtr> terms, Dependence dep) {
  return std::make_shared<SumExpr>(std::move(terms), dep);
}

ExprPtr add(ExprPtr a, ExprPtr b, Dependence dep) {
  return sum({std::move(a), std::move(b)}, dep);
}

ExprPtr prod(std::vector<ExprPtr> factors, Dependence dep) {
  return std::make_shared<ProdExpr>(std::move(factors), dep);
}

ExprPtr mul(ExprPtr a, ExprPtr b, Dependence dep) {
  return prod({std::move(a), std::move(b)}, dep);
}

ExprPtr quotient(ExprPtr numerator, ExprPtr denominator, Dependence dep) {
  return std::make_shared<DivExpr>(std::move(numerator), std::move(denominator),
                                   dep);
}

ExprPtr vmax(std::vector<ExprPtr> items, ExtremePolicy policy) {
  return std::make_shared<MaxExpr>(std::move(items), policy, /*is_max=*/true);
}

ExprPtr vmin(std::vector<ExprPtr> items, ExtremePolicy policy) {
  return std::make_shared<MaxExpr>(std::move(items), policy, /*is_max=*/false);
}

ExprPtr iterate(ExprPtr body, std::size_t iterations, Dependence dep) {
  return std::make_shared<IterateExpr>(std::move(body), iterations, dep);
}

stoch::StochasticValue monte_carlo(const Expr& expr, const Environment& env,
                                   support::Rng& rng, std::size_t trials) {
  SSPRED_REQUIRE(trials >= 2, "monte_carlo needs at least 2 trials");
  // Compile once (optimization pipeline included), then run the blocked
  // trial-major engine on the flat program.
  const ir::Program program = compile(expr);
  return program.sample_trials(bind_environment(program, env), rng, trials);
}

}  // namespace sspred::model
