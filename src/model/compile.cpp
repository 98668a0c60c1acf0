#include "model/compile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace sspred::model::ir {

// Friend of ir::Program: the optimization passes rewrite the flat buffers
// directly (the Builder's invariants — post-order, contiguous regions,
// root-last — are preserved by construction of each pass).
class ProgramRewriter {
 public:
  static Program run(const Program& in, const OptimizeOptions& options,
                     OptimizeStats* stats);

 private:
  static void fold_constants(Program& p, OptimizeStats& stats);
  static void fuse_groups(Program& p, OptimizeStats& stats);
  static void eliminate_dead(Program& p, OptimizeStats& stats);
};

namespace {

using stoch::Dependence;
using stoch::StochasticValue;

/// Per-node values of a parameter-free, draw-free subtree under the three
/// evaluation modes, each computed by that mode's own rule on point
/// inputs: the stochastic column applies stoch::'s steps, as
/// exec_stochastic does, and the other two replicate exec_point and
/// exec_blocked. A node folds to a literal only when all three agree bit
/// for bit, signed zeros included — the fold is then invisible to every
/// mode and to the RNG stream (pure subtrees never draw).
struct PureValues {
  double stochastic = 0.0;  ///< exec_stochastic's mean
  double point = 0.0;       ///< exec_point
  double sample = 0.0;      ///< exec_blocked
};

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

}  // namespace

void ProgramRewriter::fold_constants(Program& p, OptimizeStats& stats) {
  const std::size_t n = p.nodes_.size();
  std::vector<std::uint8_t> pure(n, 0);
  std::vector<PureValues> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Node& node = p.nodes_[i];
    const std::uint32_t* const o = p.operands_.data() + node.first;
    const auto all_pure = [&](std::uint32_t lo, std::uint32_t hi) {
      for (std::uint32_t j = lo; j < hi; ++j) {
        if (pure[j] == 0) return false;
      }
      return true;
    };
    const auto operands_pure = [&] {
      for (std::uint32_t k = 0; k < node.count; ++k) {
        if (pure[o[k]] == 0) return false;
      }
      return true;
    };
    // A computed node is pure only if its stochastic rule leaves a finite
    // point: where it does not (an overflow, or a divisor too small to
    // square), the walk throws at run time and the node stays as it is.
    const auto record = [&](double sm, double sh, double pm, double xm) {
      if (!std::isfinite(sm) || sh != 0.0) return;
      pure[i] = 1;
      v[i] = {sm, pm, xm};
    };
    switch (node.op) {
      case OpCode::kConst: {
        const StochasticValue& c = p.constants_[node.payload];
        if (c.is_point() && std::isfinite(c.mean())) {
          pure[i] = 1;
          v[i] = {c.mean(), c.mean(), c.mean()};
        }
        break;
      }
      case OpCode::kParam:
        break;
      case OpCode::kSum: {
        if (!operands_pure()) break;
        // Stochastic and sample fold from the first operand; point folds
        // from the additive identity.
        double sm = v[o[0]].stochastic;
        double sh = 0.0;
        double pm = 0.0;
        double xm = v[o[0]].sample;
        for (std::uint32_t k = 1; k < node.count; ++k) {
          stoch::add_step(sm, sh, v[o[k]].stochastic, node.dep);
          xm += v[o[k]].sample;
        }
        for (std::uint32_t k = 0; k < node.count; ++k) pm += v[o[k]].point;
        record(sm, sh, pm, xm);
        break;
      }
      case OpCode::kProd: {
        if (!operands_pure()) break;
        double sm = v[o[0]].stochastic;
        double sh = 0.0;
        double pm = 1.0;
        double xm = v[o[0]].sample;
        for (std::uint32_t k = 1; k < node.count; ++k) {
          stoch::mul_step(sm, sh, v[o[k]].stochastic, 0.0, node.dep);
          xm *= v[o[k]].sample;
        }
        for (std::uint32_t k = 0; k < node.count; ++k) pm *= v[o[k]].point;
        record(sm, sh, pm, xm);
        break;
      }
      case OpCode::kMax:
      case OpCode::kMin: {
        if (!operands_pure()) break;
        StochasticValue sv = v[o[0]].stochastic;
        double pm = v[o[0]].point;
        double xm = v[o[0]].sample;
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const PureValues& y = v[o[k]];
          if (node.op == OpCode::kMax) {
            sv = stoch::smax(sv, y.stochastic, node.policy);
            pm = std::max(pm, y.point);
            xm = std::max(xm, y.sample);
          } else {
            sv = stoch::smin(sv, y.stochastic, node.policy);
            pm = std::min(pm, y.point);
            xm = std::min(xm, y.sample);
          }
        }
        record(sv.mean(), sv.halfwidth(), pm, xm);
        break;
      }
      case OpCode::kDiv: {
        if (!operands_pure()) break;
        const PureValues& den = v[o[1]];
        if (den.stochastic == 0.0 || den.point == 0.0 || den.sample == 0.0) {
          break;  // division by zero throws at run time; leave it be
        }
        double sm = v[o[0]].stochastic;
        double sh = 0.0;
        stoch::div_step(sm, sh, den.stochastic, node.dep);
        record(sm, sh, v[o[0]].point / den.point, v[o[0]].sample / den.sample);
        break;
      }
      case OpCode::kIterate: {
        // The whole body region must be pure: Monte-Carlo re-executes it
        // linearly, so any impure node inside would draw.
        if (!all_pure(node.body_begin, i)) break;
        const PureValues& body = v[i - 1];
        const double reps = static_cast<double>(node.payload);
        double sm = body.stochastic;
        double sh = 0.0;
        stoch::repeat_step(sm, sh, node.payload, node.dep);
        // Unrelated iterates accumulate per repetition in sample mode;
        // repeated addition rounds differently from reps * body.
        double xm = 0.0;
        if (node.dep == Dependence::kRelated) {
          xm = reps * body.sample;
        } else {
          for (std::uint32_t rep = 0; rep < node.payload; ++rep) {
            xm += body.sample;
          }
        }
        record(sm, sh, reps * body.point, xm);
        break;
      }
      case OpCode::kRef: {
        if (!all_pure(node.body_begin, node.payload + 1)) break;
        pure[i] = 1;
        v[i] = v[node.payload];  // re-executing a pure region is a no-op
        break;
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    Node& node = p.nodes_[i];
    if (pure[i] == 0 || node.op == OpCode::kConst) continue;
    if (bits(v[i].stochastic) != bits(v[i].point) ||
        bits(v[i].point) != bits(v[i].sample)) {
      continue;
    }
    node.op = OpCode::kConst;
    node.payload = static_cast<std::uint32_t>(p.constants_.size());
    p.constants_.emplace_back(v[i].point);
    node.dep = Dependence::kUnrelated;
    node.policy = stoch::ExtremePolicy::kLargestMean;
    node.first = node.count = 0;
    node.body_begin = node.slots_first = node.slots_count = 0;
    ++stats.folded;
  }
}

void ProgramRewriter::fuse_groups(Program& p, OptimizeStats& stats) {
  const std::size_t n = p.nodes_.size();
  // Use counts over every structural edge: operand lists, the implicit
  // body-root read of an iterate, a ref's target, and the root result. A
  // chain link may be folded into its consumer only when that consumer is
  // its sole use.
  std::vector<std::uint32_t> uses(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Node& node = p.nodes_[i];
    switch (node.op) {
      case OpCode::kSum:
      case OpCode::kProd:
      case OpCode::kDiv:
      case OpCode::kMax:
      case OpCode::kMin:
        for (std::uint32_t k = 0; k < node.count; ++k) {
          ++uses[p.operands_[node.first + k]];
        }
        break;
      case OpCode::kIterate:
        ++uses[i - 1];
        break;
      case OpCode::kRef:
        ++uses[node.payload];
        break;
      default:
        break;
    }
  }
  ++uses[n - 1];

  // Rebuild operand lists ascending; a child processed earlier already has
  // its own list flattened, so one pass fully flattens every chain.
  std::vector<std::uint32_t> fused_ops;
  fused_ops.reserve(p.operands_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    Node& node = p.nodes_[i];
    if (node.op != OpCode::kSum && node.op != OpCode::kProd &&
        node.op != OpCode::kDiv && node.op != OpCode::kMax &&
        node.op != OpCode::kMin) {
      continue;
    }
    const std::uint32_t first = node.first;
    const std::uint32_t count = node.count;
    node.first = static_cast<std::uint32_t>(fused_ops.size());
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t c = p.operands_[first + k];
      const Node& child = p.nodes_[c];
      bool fuse = uses[c] == 1 && child.op == node.op;
      if (node.op == OpCode::kSum || node.op == OpCode::kProd) {
        // Sequential folds (identity-start in point/sample mode,
        // first-operand-start in stochastic mode) are bit-exact under
        // flattening only at the head position.
        fuse = fuse && k == 0 && child.dep == node.dep;
      } else if (node.op == OpCode::kMax || node.op == OpCode::kMin) {
        // Leftmost-extreme selection is grouping-invariant at any
        // position; Clark's moment-matching fold is not associative.
        fuse = fuse && child.policy == node.policy &&
               node.policy != stoch::ExtremePolicy::kClark;
      } else {
        fuse = false;
      }
      if (fuse) {
        for (std::uint32_t j = 0; j < child.count; ++j) {
          const std::uint32_t grand = fused_ops[child.first + j];
          fused_ops.push_back(grand);
        }
        ++stats.fused;
      } else {
        fused_ops.push_back(c);
      }
    }
    node.count = static_cast<std::uint32_t>(fused_ops.size()) - node.first;
  }
  p.operands_ = std::move(fused_ops);
}

void ProgramRewriter::eliminate_dead(Program& p, OptimizeStats& stats) {
  const std::size_t n = p.nodes_.size();
  std::vector<std::uint8_t> live(n, 0);
  std::vector<std::uint32_t> work{static_cast<std::uint32_t>(n - 1)};
  while (!work.empty()) {
    const std::uint32_t i = work.back();
    work.pop_back();
    if (live[i] != 0) continue;
    live[i] = 1;
    const Node& node = p.nodes_[i];
    switch (node.op) {
      case OpCode::kSum:
      case OpCode::kProd:
      case OpCode::kDiv:
      case OpCode::kMax:
      case OpCode::kMin:
        for (std::uint32_t k = 0; k < node.count; ++k) {
          work.push_back(p.operands_[node.first + k]);
        }
        break;
      case OpCode::kIterate:
        work.push_back(i - 1);
        break;
      case OpCode::kRef:
        work.push_back(node.payload);
        break;
      default:
        break;
    }
  }
  std::vector<std::uint32_t> remap(n, 0);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (live[i] != 0) remap[i] = kept++;
  }
  if (kept == n) return;

  // First live node at or after a position: region begins move up to the
  // surviving part of the region (relative order is preserved, so regions
  // stay contiguous and an iterate's body root stays immediately below it).
  std::vector<std::uint32_t> next_live(n + 1, kept);
  for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
    next_live[i] = live[i] != 0 ? remap[i] : next_live[i + 1];
  }

  std::vector<Node> nodes;
  nodes.reserve(kept);
  std::vector<std::uint32_t> operands;
  std::vector<StochasticValue> constants;
  std::vector<std::uint32_t> body_slots;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (live[i] == 0) continue;
    Node node = p.nodes_[i];
    switch (node.op) {
      case OpCode::kConst:
        node.payload = static_cast<std::uint32_t>(constants.size());
        constants.push_back(p.constants_[p.nodes_[i].payload]);
        break;
      case OpCode::kParam:
        break;
      case OpCode::kSum:
      case OpCode::kProd:
      case OpCode::kDiv:
      case OpCode::kMax:
      case OpCode::kMin: {
        const std::uint32_t first = node.first;
        node.first = static_cast<std::uint32_t>(operands.size());
        for (std::uint32_t k = 0; k < node.count; ++k) {
          operands.push_back(remap[p.operands_[first + k]]);
        }
        break;
      }
      case OpCode::kIterate: {
        node.body_begin = next_live[node.body_begin];
        const std::uint32_t slots_first = node.slots_first;
        node.slots_first = static_cast<std::uint32_t>(body_slots.size());
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          body_slots.push_back(p.body_slots_[slots_first + k]);
        }
        break;
      }
      case OpCode::kRef:
        node.body_begin = next_live[node.body_begin];
        node.payload = remap[node.payload];
        break;
    }
    nodes.push_back(node);
  }
  stats.removed_nodes = n - kept;
  p.nodes_ = std::move(nodes);
  p.operands_ = std::move(operands);
  p.constants_ = std::move(constants);
  p.body_slots_ = std::move(body_slots);
}

Program ProgramRewriter::run(const Program& in, const OptimizeOptions& options,
                             OptimizeStats* stats) {
  Program p = in;
  OptimizeStats local;
  if (options.fold_constants) fold_constants(p, local);
  if (options.fuse_groups) fuse_groups(p, local);
  if (options.eliminate_dead) eliminate_dead(p, local);
  p.reindex();
  local.dead_slots = p.slot_count() - p.live_slots_.size();
  if (stats != nullptr) *stats = local;
  return p;
}

}  // namespace sspred::model::ir

namespace sspred::model {

ir::Program optimize(const ir::Program& program,
                     const OptimizeOptions& options, OptimizeStats* stats) {
  return ir::ProgramRewriter::run(program, options, stats);
}

ir::Program compile(const Expr& expr) {
  return optimize(compile_unoptimized(expr));
}

ir::Program compile(const Expr& expr, const ir::Program& slot_base) {
  return optimize(compile_unoptimized(expr, slot_base));
}

ir::Program compile_unoptimized(const Expr& expr) {
  ir::Builder builder;
  (void)expr.lower(builder);
  return builder.take();
}

ir::Program compile_unoptimized(const Expr& expr,
                                const ir::Program& slot_base) {
  ir::Builder builder(slot_base);
  (void)expr.lower(builder);
  return builder.take();
}

ir::SlotEnvironment bind_environment(const ir::Program& program,
                                     const Environment& env) {
  ir::SlotEnvironment slots = program.make_environment();
  const auto& names = program.slot_names();
  for (std::uint32_t s = 0; s < names.size(); ++s) {
    slots.bind(s, env.lookup(names[s]));
  }
  return slots;
}

}  // namespace sspred::model
