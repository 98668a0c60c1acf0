#include "model/ir.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/error.hpp"

namespace sspred::model::ir {

using stoch::Dependence;
using stoch::StochasticValue;

namespace {

/// "a, b, c" or "(none)" — shared by the unbound-slot guards.
[[nodiscard]] std::string join_names(const std::vector<std::string>& names) {
  if (names.empty()) return "(none)";
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// One batched draw for a stochastic value: point values fill their mean
/// without touching the RNG (mirroring stoch::sample), stochastic values
/// take `lanes` consecutive ziggurat normals.
void fill_lane(const StochasticValue& v, support::Rng& rng, double* row,
               std::size_t lanes) {
  if (v.is_point()) {
    std::fill(row, row + lanes, v.mean());
  } else {
    rng.normal_fill({row, lanes}, v.mean(), v.sd());
  }
}

}  // namespace

SlotEnvironment::SlotEnvironment(
    std::shared_ptr<const std::vector<std::string>> names) {
  reset(std::move(names), kNoLane);
}

void SlotEnvironment::bind(std::uint32_t slot, StochasticValue value) {
  SSPRED_REQUIRE(slot < values_.size(),
                 "slot " + std::to_string(slot) + " out of range (program has " +
                     std::to_string(values_.size()) + " parameter slots)");
  values_[slot] = value;
  bound_[slot] = 1;
}

void SlotEnvironment::reset(
    std::shared_ptr<const std::vector<std::string>> names, std::size_t lane) {
  // assign() reuses capacity, so a pooled lane is allocation-free once it
  // has seen its largest slot table.
  values_.assign(names->size(), StochasticValue());
  bound_.assign(names->size(), 0);
  names_ = std::move(names);
  lane_ = lane;
}

const StochasticValue& SlotEnvironment::lookup(std::uint32_t slot) const {
  if (slot < bound_.size() && bound_[slot] != 0) return values_[slot];
  std::string msg =
      lane_ == kNoLane ? std::string() : "lane " + std::to_string(lane_) + ": ";
  msg += "unbound model parameter slot " + std::to_string(slot);
  if (slot < names_->size()) msg += " ('" + (*names_)[slot] + "')";
  std::vector<std::string> bound_names;
  for (std::size_t s = 0; s < bound_.size(); ++s) {
    if (bound_[s] != 0) bound_names.push_back((*names_)[s]);
  }
  msg += "; bound: " + join_names(bound_names);
  SSPRED_REQUIRE(false, msg);
  return values_[slot];  // unreachable
}

void LaneEnvironment::reset(const Program& program, std::size_t lanes) {
  while (envs_.size() < lanes) envs_.emplace_back(program.slot_names_);
  for (std::size_t k = 0; k < lanes; ++k) {
    envs_[k].reset(program.slot_names_, k);
  }
  lanes_ = lanes;
}

void LaneEnvironment::bind(std::size_t lane, std::uint32_t slot,
                           StochasticValue value) {
  (void)this->lane(lane);  // range check
  envs_[lane].bind(slot, value);
}

const SlotEnvironment& LaneEnvironment::lane(std::size_t lane) const {
  SSPRED_REQUIRE(lane < lanes_,
                 "lane " + std::to_string(lane) + " out of range (environment "
                 "has " + std::to_string(lanes_) + " lanes)");
  return envs_[lane];
}

std::uint32_t Program::slot(const std::string& name) const {
  const auto it = slot_ids_.find(name);
  SSPRED_REQUIRE(it != slot_ids_.end(),
                 "no model parameter named '" + name +
                     "'; program parameters: " + join_names(*slot_names_));
  return it->second;
}

void Program::reindex() {
  sample_skips_.clear();
  has_skip_.assign(nodes_.size(), 0);
  live_slots_.clear();
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.op == OpCode::kIterate && node.dep == Dependence::kUnrelated) {
      sample_skips_.emplace_back(node.body_begin, i);
    } else if (node.op == OpCode::kParam) {
      live_slots_.push_back(node.payload);
    }
  }
  std::sort(sample_skips_.begin(), sample_skips_.end());
  for (const auto& [pos, _] : sample_skips_) has_skip_[pos] = 1;
  std::sort(live_slots_.begin(), live_slots_.end());
  live_slots_.erase(std::unique(live_slots_.begin(), live_slots_.end()),
                    live_slots_.end());
  // Pure-ref analysis (see the member note in ir.hpp): a kRef whose region
  // re-execution provably consumes no RNG and recomputes the target bit
  // for bit can be satisfied by a row copy in the blocked engine. Refs
  // point backward, so an ascending scan sees nested refs' flags first.
  ref_pure_.assign(nodes_.size(), 0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.op != OpCode::kRef) continue;
    bool pure = true;
    for (std::uint32_t j = node.body_begin; j <= node.payload && pure; ++j) {
      const Node& n = nodes_[j];
      if (n.op == OpCode::kConst) {
        pure = constants_[n.payload].is_point();
      } else if (n.op == OpCode::kIterate) {
        pure = n.dep != Dependence::kUnrelated;
      } else if (n.op == OpCode::kRef) {
        pure = ref_pure_[j] != 0;
      }
    }
    // An unrelated-iterate body between the region and the ref resets the
    // region's slot draws (each repetition redraws them), so re-execution
    // there is a fresh draw, not a replay: require every such body to
    // contain the ref and its region together or not at all.
    for (const auto& [body_begin, iter] : sample_skips_) {
      const bool ref_inside = body_begin <= i && i < iter;
      const bool region_inside = body_begin <= node.body_begin &&
                                 node.payload < iter;
      if (ref_inside != region_inside) pure = false;
    }
    ref_pure_[i] = pure ? 1 : 0;
  }
  // Read rows (see the member note in ir.hpp). Slot rows follow the node
  // rows in the arena; a pure ref's target precedes it, so its read row
  // is already resolved.
  const auto slot_base = static_cast<std::uint32_t>(nodes_.size());
  read_row_.resize(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.op == OpCode::kParam) {
      read_row_[i] = slot_base + node.payload;
    } else if (node.op == OpCode::kRef && ref_pure_[i] != 0) {
      read_row_[i] = read_row_[node.payload];
    } else {
      read_row_[i] = i;
    }
  }
}

void Program::check_shape(const SlotEnvironment& env) const {
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
}

// --- Stochastic walk (§2.3 calculus) --------------------------------------

void Program::exec_stochastic(const SlotEnvironment& env,
                              EvalWorkspace& ws) const {
  // Every rule is stoch::'s: group sums and products fold its raw-moment
  // steps from the first operand and check one StochasticValue per node,
  // max/min fold its pairwise step, and div/iterate call it outright.
  StochasticValue* const vals = ws.values.data();
  const std::uint32_t* const ops = operands_.data();
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const std::uint32_t* const o = ops + node.first;
    switch (node.op) {
      case OpCode::kConst:
        vals[i] = constants_[node.payload];
        break;
      case OpCode::kParam:
        vals[i] = env.lookup(node.payload);
        break;
      case OpCode::kSum: {
        double mean = vals[o[0]].mean();
        double half = vals[o[0]].halfwidth();
        for (std::uint32_t k = 1; k < node.count; ++k) {
          stoch::add_step(mean, half, vals[o[k]], node.dep);
        }
        vals[i] = StochasticValue(mean, half);
        break;
      }
      case OpCode::kProd: {
        double mean = vals[o[0]].mean();
        double half = vals[o[0]].halfwidth();
        for (std::uint32_t k = 1; k < node.count; ++k) {
          stoch::mul_step(mean, half, vals[o[k]].mean(), vals[o[k]].halfwidth(),
                          node.dep);
        }
        vals[i] = StochasticValue(mean, half);
        break;
      }
      case OpCode::kMax:
      case OpCode::kMin: {
        StochasticValue acc = vals[o[0]];
        for (std::uint32_t k = 1; k < node.count; ++k) {
          acc = node.op == OpCode::kMax
                    ? stoch::smax(acc, vals[o[k]], node.policy)
                    : stoch::smin(acc, vals[o[k]], node.policy);
        }
        vals[i] = acc;
        break;
      }
      case OpCode::kDiv:
        vals[i] = stoch::div(vals[o[0]], vals[o[1]], node.dep);
        break;
      case OpCode::kIterate:
        vals[i] = stoch::repeat(vals[i - 1], node.payload, node.dep);
        break;
      case OpCode::kRef:
        // Deterministic evaluation of a subtree is context-free, so a
        // shared occurrence's value can simply be copied.
        vals[i] = vals[node.payload];
        break;
    }
  }
}

StochasticValue Program::evaluate(const SlotEnvironment& env,
                                  EvalWorkspace& ws) const {
  check_shape(env);
  ws.values.resize(nodes_.size());
  exec_stochastic(env, ws);
  return ws.values[nodes_.size() - 1];
}

StochasticValue Program::evaluate(const SlotEnvironment& env) const {
  EvalWorkspace ws;
  return evaluate(env, ws);
}

// --- Point walk -----------------------------------------------------------

void Program::exec_point(const SlotEnvironment& env, EvalWorkspace& ws) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    switch (node.op) {
      case OpCode::kConst:
        ws.point_values[i] = constants_[node.payload].mean();
        break;
      case OpCode::kParam:
        ws.point_values[i] = env.lookup(node.payload).mean();
        break;
      case OpCode::kSum: {
        double acc = 0.0;
        for (std::uint32_t k = 0; k < node.count; ++k) {
          acc += ws.point_values[operands_[node.first + k]];
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kProd: {
        double acc = 1.0;
        for (std::uint32_t k = 0; k < node.count; ++k) {
          acc *= ws.point_values[operands_[node.first + k]];
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kMax:
      case OpCode::kMin: {
        double acc = ws.point_values[operands_[node.first]];
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double v = ws.point_values[operands_[node.first + k]];
          acc = node.op == OpCode::kMax ? std::max(acc, v) : std::min(acc, v);
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kDiv: {
        const double d = ws.point_values[operands_[node.first + 1]];
        SSPRED_REQUIRE(d != 0.0, "point division by zero");
        ws.point_values[i] = ws.point_values[operands_[node.first]] / d;
        break;
      }
      case OpCode::kIterate:
        ws.point_values[i] =
            static_cast<double>(node.payload) * ws.point_values[i - 1];
        break;
      case OpCode::kRef:
        ws.point_values[i] = ws.point_values[node.payload];
        break;
    }
  }
}

double Program::evaluate_point(const SlotEnvironment& env,
                               EvalWorkspace& ws) const {
  check_shape(env);
  ws.point_values.resize(nodes_.size());
  exec_point(env, ws);
  return ws.point_values[nodes_.size() - 1];
}

double Program::evaluate_point(const SlotEnvironment& env) const {
  EvalWorkspace ws;
  return evaluate_point(env, ws);
}

// --- Blocked trial-major Monte-Carlo engine ---------------------------------
//
// Instead of one trial flowing through all nodes, each node processes a
// whole block of trials against structure-of-arrays rows of one arena
// (lane_values: a kBlockTrials-wide row per node, then one per slot).
// Group ops become flat elementwise kernels the compiler can vectorize;
// every stochastic draw event becomes one batched ziggurat fill. Per trial
// the semantics are Expr::sample's: parameters draw once per trial,
// stochastic constants and shared subtrees per occurrence, and unrelated
// iterations redraw their body's parameters. Only the RNG stream order
// differs (see kBlockTrials in the header).

void Program::exec_blocked(const SlotEnvironment& env, support::Rng& rng,
                           EvalWorkspace& ws, std::uint32_t lo,
                           std::uint32_t hi, std::size_t lanes) const {
  double* const vals = ws.lane_values.data();
  const std::uint32_t* const ops = operands_.data();
  const auto row = [vals](std::uint32_t r) {
    return vals + static_cast<std::size_t>(r) * kBlockTrials;
  };
  // Where node i's values are read: its own row, or the slot or target row
  // a kParam or pure kRef aliases (read_row_).
  const auto src = [&](std::uint32_t i) -> const double* {
    return row(read_row_[i]);
  };
  const auto slot_row = [&](std::uint32_t s) {
    return row(static_cast<std::uint32_t>(nodes_.size()) + s);
  };
  std::uint32_t i = lo;
  while (i < hi) {
    // An unrelated-iterate body must not run under the enclosing trial's
    // slot draws — the tree gives each iteration fresh parameter draws —
    // so the walk jumps over the body region to the iterate node, which
    // runs it under its own repetition loop with fresh slot rows for every
    // repetition. With nested bodies sharing a begin position, the
    // outermost iterate inside the current region wins.
    if (has_skip_[i] != 0) {
      auto it = std::lower_bound(
          sample_skips_.begin(), sample_skips_.end(),
          std::pair<std::uint32_t, std::uint32_t>{i, 0});
      std::uint32_t target = 0;
      for (; it != sample_skips_.end() && it->first == i; ++it) {
        if (it->second < hi) target = std::max(target, it->second);
      }
      if (target != 0) {
        const Node& node = nodes_[target];
        const std::size_t mark = ws.lane_saved.size();
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          const double* const saved =
              slot_row(body_slots_[node.slots_first + k]);
          ws.lane_saved.insert(ws.lane_saved.end(), saved, saved + lanes);
        }
        double* const acc = row(target);
        std::fill(acc, acc + lanes, 0.0);
        for (std::uint32_t rep = 0; rep < node.payload; ++rep) {
          for (std::uint32_t k = 0; k < node.slots_count; ++k) {
            const std::uint32_t s = body_slots_[node.slots_first + k];
            fill_lane(env.lookup(s), rng, slot_row(s), lanes);
          }
          exec_blocked(env, rng, ws, node.body_begin, target, lanes);
          const double* const body = src(target - 1);
          for (std::size_t t = 0; t < lanes; ++t) acc[t] += body[t];
        }
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          std::copy_n(ws.lane_saved.data() + mark + k * lanes, lanes,
                      slot_row(body_slots_[node.slots_first + k]));
        }
        ws.lane_saved.resize(mark);
        i = target + 1;
        continue;
      }
    }
    const Node& node = nodes_[i];
    switch (node.op) {
      case OpCode::kConst:
        // Stochastic constants draw per occurrence (per block), exactly
        // like the tree draws per occurrence per trial.
        fill_lane(constants_[node.payload], rng, row(i), lanes);
        break;
      case OpCode::kParam:
        // Readers take the slot row in place (read_row_).
        break;
      case OpCode::kSum: {
        double* const r = row(i);
        std::copy_n(src(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = src(ops[node.first + k]);
          for (std::size_t t = 0; t < lanes; ++t) r[t] += b[t];
        }
        break;
      }
      case OpCode::kProd: {
        double* const r = row(i);
        std::copy_n(src(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = src(ops[node.first + k]);
          for (std::size_t t = 0; t < lanes; ++t) r[t] *= b[t];
        }
        break;
      }
      case OpCode::kMax: {
        double* const r = row(i);
        std::copy_n(src(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = src(ops[node.first + k]);
          for (std::size_t t = 0; t < lanes; ++t) r[t] = std::max(r[t], b[t]);
        }
        break;
      }
      case OpCode::kMin: {
        double* const r = row(i);
        std::copy_n(src(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = src(ops[node.first + k]);
          for (std::size_t t = 0; t < lanes; ++t) r[t] = std::min(r[t], b[t]);
        }
        break;
      }
      case OpCode::kDiv: {
        const double* const num = src(ops[node.first]);
        const double* const den = src(ops[node.first + 1]);
        double* const r = row(i);
        // One vectorizable pass divides and ORs in the bits of r - r:
        // +0 for a finite quotient, NaN for an infinite or NaN one. Only
        // a non-finite lane pays for the rescan that tells a zero
        // denominator (an error; its lane's infinity or NaN is never read
        // past the throw) from an overflow or a NaN operand (passed on).
        std::uint64_t non_finite = 0;
        for (std::size_t t = 0; t < lanes; ++t) {
          r[t] = num[t] / den[t];
          non_finite |= std::bit_cast<std::uint64_t>(r[t] - r[t]);
        }
        if (non_finite != 0) {
          SSPRED_REQUIRE(std::none_of(den, den + lanes,
                                      [](double d) { return d == 0.0; }),
                         "sampled division by zero");
        }
        break;
      }
      case OpCode::kIterate: {
        // Only related iterates reach the linear walk (see the skip above):
        // one shared body draw per trial, repeated n times.
        const double n = static_cast<double>(node.payload);
        const double* const body = src(i - 1);
        double* const r = row(i);
        for (std::size_t t = 0; t < lanes; ++t) r[t] = n * body[t];
        break;
      }
      case OpCode::kRef: {
        // A pure region (no draw events at re-execution time; see
        // reindex()) would recompute the target's values bit for bit
        // while consuming no RNG: readers take them in place (read_row_).
        if (ref_pure_[i] != 0) break;
        // Re-execute the occurrence region for an independent draw, with
        // the region's rows — contiguous in node-major layout — saved
        // around the re-run: they may still be pending operands of later
        // consumers.
        const std::uint32_t begin = node.body_begin;
        const std::uint32_t target = node.payload;
        const std::size_t span_len =
            static_cast<std::size_t>(target - begin + 1) * kBlockTrials;
        const std::size_t mark = ws.lane_saved.size();
        ws.lane_saved.insert(ws.lane_saved.end(), row(begin),
                             row(begin) + span_len);
        exec_blocked(env, rng, ws, begin, target + 1, lanes);
        std::copy_n(src(target), lanes, row(i));
        std::copy_n(ws.lane_saved.data() + mark, span_len, row(begin));
        ws.lane_saved.resize(mark);
        break;
      }
    }
    ++i;
  }
}

void Program::prepare_blocked(EvalWorkspace& ws) const {
  ws.lane_values.resize((nodes_.size() + slot_count()) * kBlockTrials);
}

const double* Program::run_block(const SlotEnvironment& env,
                                 support::Rng& rng, EvalWorkspace& ws,
                                 std::size_t lanes) const {
  // Block prologue: one batched draw per live slot, ascending slot id.
  // Dead slots (present in the table, read by no node) draw nothing.
  double* const vals = ws.lane_values.data();
  for (const std::uint32_t s : live_slots_) {
    fill_lane(env.lookup(s), rng, vals + (nodes_.size() + s) * kBlockTrials,
              lanes);
  }
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  exec_blocked(env, rng, ws, 0, n, lanes);
  return vals + static_cast<std::size_t>(read_row_[n - 1]) * kBlockTrials;
}

void Program::sample_into(const SlotEnvironment& env, support::Rng& rng,
                          std::span<double> out, EvalWorkspace& ws) const {
  check_shape(env);
  prepare_blocked(ws);
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t lanes = std::min(kBlockTrials, out.size() - done);
    std::copy_n(run_block(env, rng, ws, lanes), lanes,
                out.begin() + static_cast<std::ptrdiff_t>(done));
    done += lanes;
  }
}

StochasticValue Program::sample_trials(const SlotEnvironment& env,
                                       support::Rng& rng, std::size_t trials,
                                       EvalWorkspace& ws) const {
  SSPRED_REQUIRE(trials >= 2, "sample_trials needs at least 2 trials");
  return sample_adaptive(env, rng, stats::StopRule::fixed(trials), ws).value;
}

StochasticValue Program::sample_trials(const SlotEnvironment& env,
                                       support::Rng& rng,
                                       std::size_t trials) const {
  EvalWorkspace ws;
  return sample_trials(env, rng, trials, ws);
}

// --- Adaptive (sequentially stopped) Monte-Carlo ----------------------------
//
// sample_adaptive runs the blocked engine in stats::next_block_width
// blocks, merges each block's moments into the summary (the contract at
// kBlockTrials) and consults the stop rule between blocks; the decision
// is a pure function of the sampled values, so trial counts are
// reproducible from the seed. A fixed rule walks straight kBlockTrials
// blocks with a partial last one — sample_trials() is exactly that — and
// a precision rule uses doubling checkpoints so easy targets stop in
// hundreds of trials.

AdaptiveResult Program::sample_adaptive(const SlotEnvironment& env,
                                        support::Rng& rng,
                                        const stats::StopRule& rule,
                                        EvalWorkspace& ws) const {
  SSPRED_REQUIRE(rule.max_trials >= 2,
                 "sample_adaptive needs rule.max_trials >= 2");
  check_shape(env);
  // A fully folded point program needs no sampling at all: every trial
  // would be exactly the mean, so return the constant without drawing.
  if (nodes_.size() == 1 && nodes_[0].op == OpCode::kConst &&
      constants_[0].is_point()) {
    return AdaptiveResult{constants_[0], 0, 0.0, true};
  }
  prepare_blocked(ws);
  stats::SequentialEstimator est(rule);
  for (;;) {
    const std::size_t lanes =
        stats::next_block_width(est.count(), rule, kBlockTrials);
    if (lanes == 0) break;
    est.merge(stats::OnlineStats::from_block(
        {run_block(env, rng, ws, lanes), lanes}));
    if (est.should_stop()) break;
  }
  AdaptiveResult result;
  result.value = StochasticValue::from_mean_sd(est.mean(), est.sd());
  result.trials = est.count();
  result.ci_halfwidth = est.ci_halfwidth();
  result.converged = rule.target <= 0.0 || est.precision_met();
  return result;
}

AdaptiveResult Program::sample_adaptive(const SlotEnvironment& env,
                                        support::Rng& rng,
                                        const stats::StopRule& rule) const {
  EvalWorkspace ws;
  return sample_adaptive(env, rng, rule, ws);
}

// --- Lane-wise entry points -------------------------------------------------

void Program::evaluate_fused(const LaneEnvironment& env, EvalWorkspace& ws,
                             std::span<StochasticValue> out) const {
  SSPRED_REQUIRE(out.size() == env.lanes(),
                 "evaluate_fused: out.size() must equal env.lanes()");
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = evaluate(env.lane(k), ws);
  }
}

void Program::evaluate_point_fused(const LaneEnvironment& env,
                                   EvalWorkspace& ws,
                                   std::span<double> out) const {
  SSPRED_REQUIRE(out.size() == env.lanes(),
                 "evaluate_point_fused: out.size() must equal env.lanes()");
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = evaluate_point(env.lane(k), ws);
  }
}

void Program::sample_fused(const LaneEnvironment& env,
                           std::span<support::Rng> rngs, std::size_t trials,
                           EvalWorkspace& ws,
                           std::span<StochasticValue> out) const {
  SSPRED_REQUIRE(rngs.size() == env.lanes() && out.size() == env.lanes(),
                 "sample_fused: rngs.size() and out.size() must equal "
                 "env.lanes()");
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = sample_trials(env.lane(k), rngs[k], trials, ws);
  }
}

void Program::sample_adaptive_fused(const LaneEnvironment& env,
                                    std::span<support::Rng> rngs,
                                    std::span<const stats::StopRule> rules,
                                    EvalWorkspace& ws,
                                    std::span<AdaptiveResult> out) const {
  SSPRED_REQUIRE(rngs.size() == env.lanes() && rules.size() == env.lanes() &&
                     out.size() == env.lanes(),
                 "sample_adaptive_fused: rngs/rules/out sizes must equal "
                 "env.lanes()");
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = sample_adaptive(env.lane(k), rngs[k], rules[k], ws);
  }
}

// --- Builder --------------------------------------------------------------

Builder::Builder(const Program& base) : names_(*base.slot_names_) {
  prog_.slot_ids_ = base.slot_ids_;
}

std::uint32_t Builder::emit_const(StochasticValue v) {
  const auto idx = static_cast<std::uint32_t>(prog_.constants_.size());
  prog_.constants_.push_back(v);
  Node node;
  node.op = OpCode::kConst;
  node.payload = idx;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_param(const std::string& name) {
  std::uint32_t slot;
  const auto it = prog_.slot_ids_.find(name);
  if (it != prog_.slot_ids_.end()) {
    slot = it->second;
  } else {
    slot = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    prog_.slot_ids_.emplace(name, slot);
  }
  Node node;
  node.op = OpCode::kParam;
  node.payload = slot;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_group(OpCode op,
                                  std::span<const std::uint32_t> children,
                                  Dependence dep,
                                  stoch::ExtremePolicy policy) {
  SSPRED_REQUIRE(op == OpCode::kSum || op == OpCode::kProd ||
                     op == OpCode::kDiv || op == OpCode::kMax ||
                     op == OpCode::kMin,
                 "emit_group: not a group opcode");
  SSPRED_REQUIRE(!children.empty(), "group node needs operands");
  SSPRED_REQUIRE(op != OpCode::kDiv || children.size() == 2,
                 "division takes exactly two operands");
  for (const std::uint32_t c : children) {
    SSPRED_REQUIRE(c < next_index(),
                   "operand must be emitted before its consumer (post-order)");
  }
  Node node;
  node.op = op;
  node.dep = dep;
  node.policy = policy;
  node.first = static_cast<std::uint32_t>(prog_.operands_.size());
  node.count = static_cast<std::uint32_t>(children.size());
  prog_.operands_.insert(prog_.operands_.end(), children.begin(),
                         children.end());
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_iterate(std::uint32_t body_begin,
                                    std::size_t iterations, Dependence dep) {
  SSPRED_REQUIRE(body_begin < next_index(), "iterate body must not be empty");
  SSPRED_REQUIRE(iterations >= 1, "iterate needs at least one iteration");
  SSPRED_REQUIRE(iterations <= 0xffffffffULL, "iteration count too large");
  Node node;
  node.op = OpCode::kIterate;
  node.dep = dep;
  node.payload = static_cast<std::uint32_t>(iterations);
  node.body_begin = body_begin;
  // Distinct parameter slots the body references (including nested iterate
  // bodies — their params are ordinary kParam nodes in the region — and
  // the regions behind kRef nodes, which sampling re-executes in place).
  std::vector<std::uint32_t> slots;
  const auto collect = [&](auto&& self, std::uint32_t lo,
                           std::uint32_t hi) -> void {
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Node& n = prog_.nodes_[i];
      if (n.op == OpCode::kParam) {
        slots.push_back(n.payload);
      } else if (n.op == OpCode::kRef) {
        self(self, n.body_begin, n.payload + 1);
      }
    }
  };
  collect(collect, body_begin, next_index());
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  node.slots_first = static_cast<std::uint32_t>(prog_.body_slots_.size());
  node.slots_count = static_cast<std::uint32_t>(slots.size());
  prog_.body_slots_.insert(prog_.body_slots_.end(), slots.begin(),
                           slots.end());
  const std::uint32_t idx = next_index();
  prog_.nodes_.push_back(node);
  return idx;
}

std::uint32_t Builder::emit_ref(std::uint32_t target,
                                std::uint32_t region_begin) {
  SSPRED_REQUIRE(target < next_index(),
                 "ref target must be emitted before the ref");
  SSPRED_REQUIRE(region_begin <= target, "ref region must end at its target");
  Node node;
  node.op = OpCode::kRef;
  node.payload = target;
  node.body_begin = region_begin;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_shared_ref(const void* key) {
  const auto it = shared_.find(key);
  if (it == shared_.end()) return kNoNode;
  return emit_ref(it->second.second, it->second.first);
}

void Builder::note_shared(const void* key, std::uint32_t region_begin,
                          std::uint32_t root) {
  shared_.emplace(key, std::make_pair(region_begin, root));
}

Program Builder::take() {
  SSPRED_REQUIRE(!prog_.nodes_.empty(), "cannot compile an empty program");
  prog_.slot_names_ =
      std::make_shared<const std::vector<std::string>>(std::move(names_));
  prog_.reindex();
  return std::move(prog_);
}

}  // namespace sspred::model::ir
