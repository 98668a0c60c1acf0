// Flat slot-indexed IR for structural models.
//
// The `Expr` tree (expr.hpp) is the authoring frontend: it is easy to build
// and to read, but every evaluation re-walks a shared_ptr DAG through
// virtual dispatch and resolves parameters through string-keyed map
// lookups. `compile()` (compile.hpp) flattens a tree into a `Program`: a
// contiguous post-order node buffer with parameters interned to integer
// slots. The iterative evaluator walks that buffer once per evaluation —
// no virtual calls, no pointer chasing, no string lookups — and mirrors
// the tree API with three entry points:
//   * evaluate()       — the §2.3 stochastic calculus;
//   * evaluate_point() — conventional point prediction;
//   * sample_trials()  — batched Monte-Carlo over trial-major blocks of
//                        structure-of-arrays buffers (one double[block]
//                        row per node and per slot), so each node is a
//                        flat arithmetic kernel over the whole block.
// All three are semantically interchangeable with the tree evaluators:
// evaluate() and evaluate_point() agree with them to 1e-12, and
// sample_trials() draws the same distribution as Expr::sample(), checked
// statistically on random DAGs (tests/compile_test.cpp). Monte-Carlo
// carries two versioned contracts (see kBlockTrials below): the blocked
// RNG stream order, which feeds whole blocks from the batched ziggurat
// sampler and fixes every raw trial, and the summary, which fixes how
// blocks reduce to a served mean ± 2sd. Hand replays in
// tests/mc_engine_test.cpp and pinned goldens in tests/compile_test.cpp
// hold both bit for bit.
//
// Each entry point also has a lane-wise variant (evaluate_fused /
// evaluate_point_fused / sample_fused / sample_adaptive_fused) that runs
// the solo walk once per lane of a LaneEnvironment — one SlotEnvironment
// per set of bindings — so every lane's result is its solo result, RNG
// stream included, by construction. The serving layer evaluates each
// distinct request on its own; the lane-wise calls are for callers
// holding many bindings of one program at once (the repository
// benchmark's whatif_mc kernel rung, tests/fused_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/sequential.hpp"
#include "stoch/arithmetic.hpp"
#include "stoch/group_ops.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::model::ir {

/// Operation of one flat node. Group nodes (sum/prod/max/min/div) read
/// their operands' values from earlier positions in the buffer; post-order
/// guarantees operands are computed before their consumer.
enum class OpCode : std::uint8_t {
  kConst,    ///< push constants[payload]
  kParam,    ///< push slot `payload` of the SlotEnvironment
  kSum,      ///< fold stoch::add_step over the operand list (dep regime)
  kProd,     ///< fold stoch::mul_step over the operand list (dep regime)
  kDiv,      ///< stoch::div(operands[0], operands[1]) (dep regime)
  kMax,      ///< fold stoch::smax over the operand list (policy)
  kMin,      ///< fold stoch::smin over the operand list (policy)
  kIterate,  ///< stoch::repeat: n repetitions of the body region summed
  kRef,      ///< reuse of an earlier occurrence region (shared subtree)
};

/// One flat node. Fields are a union-of-purposes kept plain for
/// cache-friendly linear walks:
///  * kConst:   payload = index into Program constants
///  * kParam:   payload = parameter slot id
///  * group ops: first/count index the shared operand-id buffer
///  * kIterate: payload = iteration count; body occupies
///    [body_begin, self) with its root immediately before self;
///    slots_first/slots_count list the distinct parameter slots the body
///    references (needed to give each unrelated Monte-Carlo iteration a
///    fresh per-slot draw without disturbing the enclosing trial's cache).
///  * kRef:     payload = root node of an earlier occurrence region
///    [body_begin, payload] compiled from the same authoring subtree.
///    Deterministic walks copy the occurrence's value; the Monte-Carlo
///    engine re-executes the region so every occurrence draws
///    independently, exactly like the tree re-walking a shared subtree.
struct Node {
  OpCode op = OpCode::kConst;
  stoch::Dependence dep = stoch::Dependence::kUnrelated;
  stoch::ExtremePolicy policy = stoch::ExtremePolicy::kLargestMean;
  std::uint32_t payload = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint32_t body_begin = 0;
  std::uint32_t slots_first = 0;
  std::uint32_t slots_count = 0;
};

class Program;

/// Lanes per block of the Monte-Carlo engine, which runs trial-major
/// blocks of kBlockTrials lanes over SoA buffers. Its RNG stream contract:
/// per draw event the whole block's normals are drawn consecutively
/// (ziggurat), first every live parameter slot in ascending slot-id order,
/// then the node-major walk (stochastic constants per occurrence; kRef
/// nodes re-run their region unless it draws nothing; unrelated iterate
/// repetitions redraw their body slots, ascending, per repetition). The
/// block width is part of that contract: changing it changes every
/// stream.
///
/// Its summary contract: each block's trials reduce to their moments by
/// stats::OnlineStats::from_block (two passes, the mean and then the
/// squared deviations about it, each in 4 interleaved accumulators), and
/// blocks merge in draw order by Chan's update (OnlineStats::merge). The
/// precision stop rule reads that merged summary between blocks, and
/// sample_trials / sample_adaptive report its mean ± 2sd. The summary
/// fixes the served bits, not the raw trials, which depend only on the
/// stream contract (sample_into).
inline constexpr std::size_t kBlockTrials = 1024;

/// Dense parameter bindings for one compiled evaluation: a vector of
/// stochastic values indexed by slot id, replacing the tree path's
/// per-evaluation string->value map lookups. Also the one-lane form of a
/// LaneEnvironment, whose lane k is a SlotEnvironment that knows its
/// lane index (for error messages).
class SlotEnvironment {
 public:
  /// An environment with every slot of `names` unbound.
  explicit SlotEnvironment(
      std::shared_ptr<const std::vector<std::string>> names);

  void bind(std::uint32_t slot, stoch::StochasticValue value);

  /// Throws sspred::support::Error naming the slot (and the lane, for a
  /// lane of a LaneEnvironment) and listing the bound slots when `slot`
  /// is out of range or unbound.
  [[nodiscard]] const stoch::StochasticValue& lookup(std::uint32_t slot) const;

  [[nodiscard]] bool bound(std::uint32_t slot) const noexcept {
    return slot < bound_.size() && bound_[slot] != 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return *names_;
  }

 private:
  friend class LaneEnvironment;
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  /// Reshapes to `names` with every slot unbound; capacity only grows.
  void reset(std::shared_ptr<const std::vector<std::string>> names,
             std::size_t lane);

  std::vector<stoch::StochasticValue> values_;
  std::vector<std::uint8_t> bound_;
  std::shared_ptr<const std::vector<std::string>> names_;
  std::size_t lane_ = kNoLane;  ///< index inside a LaneEnvironment
};

/// Per-lane parameter bindings for the lane-wise entry points: one
/// SlotEnvironment per lane, so a lane binds and looks up exactly like a
/// solo environment. A default constructed environment is empty; reset()
/// (re)shapes it for a program and lane count, retaining capacity, so a
/// caller reusing one environment across calls binds allocation-free
/// after warmup.
class LaneEnvironment {
 public:
  LaneEnvironment() = default;

  /// Reshapes for `lanes` lanes of `program`'s slot table and clears every
  /// binding. Capacity only grows.
  void reset(const Program& program, std::size_t lanes);

  /// Throws sspred::support::Error when `lane` or `slot` is out of range.
  void bind(std::size_t lane, std::uint32_t slot,
            stoch::StochasticValue value);

  /// Lane `lane`'s bindings; throws sspred::support::Error when out of
  /// range.
  [[nodiscard]] const SlotEnvironment& lane(std::size_t lane) const;

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

 private:
  std::vector<SlotEnvironment> envs_;  ///< lanes_ live, the rest pooled
  std::size_t lanes_ = 0;
};

/// Reusable evaluation buffers. Every Program entry point has an overload
/// taking one of these; the overloads without it allocate a fresh
/// workspace per call. Each walk sizes only the buffers it reads, and
/// reuse across calls makes evaluation allocation-free after warmup.
struct EvalWorkspace {
  std::vector<stoch::StochasticValue> values;  ///< evaluate(): per node
  std::vector<double> point_values;            ///< evaluate_point(): per node
  // Monte-Carlo structure-of-arrays arenas, kBlockTrials-wide rows kept
  // hot across calls, so serving workers pay no per-request allocation on
  // the Monte-Carlo path after warmup.
  std::vector<double> lane_values;  ///< one row per node, then per slot
  std::vector<double> lane_saved;   ///< row save/restore stack
};

/// Outcome of one adaptively stopped Monte-Carlo run: the summary plus
/// how much work the stop rule actually bought.
struct AdaptiveResult {
  /// mean ± 2sd of the executed trials' merged block summary (see
  /// kBlockTrials)
  stoch::StochasticValue value;
  std::size_t trials = 0;        ///< trials actually executed
  double ci_halfwidth = 0.0;     ///< achieved CI half-width of the mean
  /// False only when a precision target was set and still unmet at the
  /// max-trial clamp (a structured partial-precision outcome, not an
  /// error). Fixed rules and point-program short-circuits report true.
  bool converged = true;
};

/// A compiled structural model: arena-style flat buffers, value semantics,
/// immutable after compile(). Thread-safe for concurrent evaluation as
/// long as each thread uses its own EvalWorkspace and RNG.
class Program {
 public:
  /// Stochastic evaluation under the §2.3 calculus (tree-equivalent).
  [[nodiscard]] stoch::StochasticValue evaluate(
      const SlotEnvironment& env) const;
  [[nodiscard]] stoch::StochasticValue evaluate(const SlotEnvironment& env,
                                                EvalWorkspace& ws) const;

  /// Conventional point evaluation (all parameters collapse to means).
  [[nodiscard]] double evaluate_point(const SlotEnvironment& env) const;
  [[nodiscard]] double evaluate_point(const SlotEnvironment& env,
                                      EvalWorkspace& ws) const;

  /// `trials` Monte-Carlo samples summarized as mean ± 2sd, drawn by the
  /// blocked engine (see kBlockTrials for the stream order and the
  /// summary): sample_adaptive(env, rng, StopRule::fixed(trials)).value.
  /// Workspace buffers are reused across all trials (and across calls
  /// when the caller passes its own workspace).
  [[nodiscard]] stoch::StochasticValue sample_trials(
      const SlotEnvironment& env, support::Rng& rng, std::size_t trials) const;
  [[nodiscard]] stoch::StochasticValue sample_trials(
      const SlotEnvironment& env, support::Rng& rng, std::size_t trials,
      EvalWorkspace& ws) const;

  /// Writes one Monte-Carlo sample per element of `out` (out.size()
  /// trials): the stream contract's raw trials, before any summary. The
  /// tests that pin the draw order and the allocation-free warm path
  /// read trials through it.
  void sample_into(const SlotEnvironment& env, support::Rng& rng,
                   std::span<double> out, EvalWorkspace& ws) const;

  /// Sequentially stopped Monte-Carlo: draws trial blocks per
  /// stats::next_block_width, merges each block's moments into the
  /// summary, and stops at the first between-block checkpoint where `rule`
  /// is satisfied, or at its max-trial clamp. The stop decision depends
  /// only on the sampled values, so a fixed seed reproduces the exact
  /// trial count. A rule with no precision target (`StopRule::fixed(n)`)
  /// is sample_trials(env, rng, n). rule.max_trials must be >= 2.
  [[nodiscard]] AdaptiveResult sample_adaptive(const SlotEnvironment& env,
                                               support::Rng& rng,
                                               const stats::StopRule& rule,
                                               EvalWorkspace& ws) const;
  [[nodiscard]] AdaptiveResult sample_adaptive(const SlotEnvironment& env,
                                               support::Rng& rng,
                                               const stats::StopRule& rule)
      const;

  // --- Lane-wise evaluation ----------------------------------------------
  //
  // Each entry point runs its single-request counterpart once per lane of
  // `env`, in lane order, sharing `ws`; out[k] is that counterpart's
  // result for lane k. out.size() must equal env.lanes().

  /// evaluate() per lane.
  void evaluate_fused(const LaneEnvironment& env, EvalWorkspace& ws,
                      std::span<stoch::StochasticValue> out) const;

  /// evaluate_point() per lane.
  void evaluate_point_fused(const LaneEnvironment& env, EvalWorkspace& ws,
                            std::span<double> out) const;

  /// sample_trials(lane k, rngs[k], trials) per lane: lane k
  /// draws only from rngs[k]. rngs.size() must equal env.lanes().
  void sample_fused(const LaneEnvironment& env, std::span<support::Rng> rngs,
                    std::size_t trials, EvalWorkspace& ws,
                    std::span<stoch::StochasticValue> out) const;

  /// sample_adaptive(lane k, rngs[k], rules[k]) per lane, so lanes with
  /// mixed fixed-count and precision rules stop independently.
  /// rngs/rules/out sizes must equal env.lanes().
  void sample_adaptive_fused(const LaneEnvironment& env,
                             std::span<support::Rng> rngs,
                             std::span<const stats::StopRule> rules,
                             EvalWorkspace& ws,
                             std::span<AdaptiveResult> out) const;

  /// A SlotEnvironment shaped for this program, all slots unbound.
  [[nodiscard]] SlotEnvironment make_environment() const {
    return SlotEnvironment(slot_names_);
  }

  /// A LaneEnvironment shaped for this program with `lanes` lanes, all
  /// slots unbound in every lane.
  [[nodiscard]] LaneEnvironment make_lane_environment(std::size_t lanes) const {
    LaneEnvironment env;
    env.reset(*this, lanes);
    return env;
  }

  /// Slot id for `name`; throws sspred::support::Error listing the known
  /// parameters when the program has no such parameter.
  [[nodiscard]] std::uint32_t slot(const std::string& name) const;
  [[nodiscard]] bool has_slot(const std::string& name) const noexcept {
    return slot_ids_.contains(name);
  }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slot_names_->size();
  }
  [[nodiscard]] const std::vector<std::string>& slot_names() const noexcept {
    return *slot_names_;
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const Node& node(std::size_t i) const { return nodes_[i]; }
  /// Constant-pool entry `i` (kConst nodes index it through payload).
  [[nodiscard]] const stoch::StochasticValue& constant(std::size_t i) const {
    return constants_[i];
  }
  /// Slots some node actually reads, ascending. Slots present only in the
  /// table (e.g. inherited from a slot_base) are dead: the blocked engine
  /// never draws for them, and the optimizer reports them.
  [[nodiscard]] std::span<const std::uint32_t> live_slots() const noexcept {
    return live_slots_;
  }

 private:
  friend class Builder;
  friend class ProgramRewriter;  ///< optimizer passes (model/compile.cpp)
  friend class LaneEnvironment;  ///< reset() shares slot_names_

  /// Recomputes the derived indexes (sample skips, per-node skip flags,
  /// live slots, pure refs, read rows) from nodes_; called after building
  /// and after rewrites.
  void reindex();
  /// Throws unless `env` was made for this program's slot table.
  void check_shape(const SlotEnvironment& env) const;
  /// The §2.3 walk: every node applies the stoch:: rule for its opcode,
  /// one checked StochasticValue per node.
  void exec_stochastic(const SlotEnvironment& env, EvalWorkspace& ws) const;
  void exec_point(const SlotEnvironment& env, EvalWorkspace& ws) const;
  /// Sizes the Monte-Carlo arenas.
  void prepare_blocked(EvalWorkspace& ws) const;
  /// Draws one block of `lanes` trials (the slot prologue, then the walk)
  /// and returns the row holding the root's values.
  const double* run_block(const SlotEnvironment& env, support::Rng& rng,
                          EvalWorkspace& ws, std::size_t lanes) const;
  /// Executes nodes [lo, hi) of the Monte-Carlo walk for `lanes` trials at
  /// once against the workspace's SoA rows, skipping regions that are
  /// bodies of unrelated-iterate nodes (those re-run under the iterate
  /// node's own loop, with fresh per-slot draws each iteration).
  void exec_blocked(const SlotEnvironment& env, support::Rng& rng,
                    EvalWorkspace& ws, std::uint32_t lo, std::uint32_t hi,
                    std::size_t lanes) const;

  std::vector<Node> nodes_;                       ///< post-order; root last
  std::vector<std::uint32_t> operands_;           ///< group operand node ids
  std::vector<stoch::StochasticValue> constants_;
  std::vector<std::uint32_t> body_slots_;         ///< iterate body slot sets
  /// For each position that begins the body of one or more unrelated
  /// iterate nodes: the iterate node ids, ascending (nested bodies share a
  /// begin position; the Monte-Carlo walk jumps to the largest id inside
  /// the region being executed).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sample_skips_;
  std::vector<std::uint8_t> has_skip_;            ///< per-node skip flag
  /// Per-node flag, set only on kRef nodes whose occurrence region is
  /// draw-free at re-execution time: every constant in the region is
  /// point-valued, it contains no unrelated iterate (and no impure nested
  /// ref), and no unrelated-iterate body separates the ref from its region
  /// (which would reset the region's slot draws in between). Re-executing
  /// such a region consumes no RNG and recomputes the target's values bit
  /// for bit, so the blocked engine reads the target's values in place
  /// instead, skipping the region re-run and its lane save/restore.
  std::vector<std::uint8_t> ref_pure_;
  /// Per-node arena row the blocked engine reads the node's values from:
  /// a kParam's slot row (slot s is row node_count() + s), a pure kRef's
  /// target's read row, otherwise the node's own row. Every operand read,
  /// the unrelated-iterate body read and the root read go through it, so
  /// neither kind of node copies a row.
  std::vector<std::uint32_t> read_row_;
  std::vector<std::uint32_t> live_slots_;         ///< referenced slots, asc
  std::shared_ptr<const std::vector<std::string>> slot_names_ =
      std::make_shared<const std::vector<std::string>>();
  std::map<std::string, std::uint32_t> slot_ids_;
};

/// Append-only program assembler used by Expr::lower(). Children must be
/// emitted before their parent (post-order), which the recursive lowering
/// does naturally.
class Builder {
 public:
  Builder() = default;
  /// Seeds the slot table from `base` so programs compiled from related
  /// expressions (a model and its component breakdowns) agree on slot ids.
  explicit Builder(const Program& base);

  [[nodiscard]] std::uint32_t emit_const(stoch::StochasticValue v);
  [[nodiscard]] std::uint32_t emit_param(const std::string& name);
  /// kSum/kProd/kDiv take `dep`; kMax/kMin take `policy`.
  [[nodiscard]] std::uint32_t emit_group(OpCode op,
                                         std::span<const std::uint32_t> children,
                                         stoch::Dependence dep,
                                         stoch::ExtremePolicy policy);
  /// The body must be the nodes emitted since `body_begin` (non-empty,
  /// root last).
  [[nodiscard]] std::uint32_t emit_iterate(std::uint32_t body_begin,
                                           std::size_t iterations,
                                           stoch::Dependence dep);

  /// Reuse node for the already-emitted occurrence region
  /// [region_begin, target]: deterministic walks copy the target's value,
  /// the Monte-Carlo walk re-executes the region for an independent draw.
  [[nodiscard]] std::uint32_t emit_ref(std::uint32_t target,
                                       std::uint32_t region_begin);

  /// Shared-subtree memo, keyed by the authoring node's identity. If `key`
  /// was noted before, emits a kRef to its occurrence and returns the new
  /// node id; otherwise returns kNoNode (caller should lower the subtree
  /// and note_shared() it).
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  [[nodiscard]] std::uint32_t emit_shared_ref(const void* key);
  void note_shared(const void* key, std::uint32_t region_begin,
                   std::uint32_t root);

  /// Index the next emitted node will get (used to mark iterate bodies).
  [[nodiscard]] std::uint32_t next_index() const noexcept {
    return static_cast<std::uint32_t>(prog_.nodes_.size());
  }

  /// Finalizes into an immutable Program. The last emitted node is the
  /// root; requires at least one node.
  [[nodiscard]] Program take();

 private:
  Program prog_;
  std::vector<std::string> names_;  ///< mutable slot table until take()
  /// authoring-node identity -> (region begin, root) of first emission
  std::map<const void*, std::pair<std::uint32_t, std::uint32_t>> shared_;
};

}  // namespace sspred::model::ir
