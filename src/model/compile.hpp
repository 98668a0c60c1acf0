// compile() — the only bridge between the Expr authoring frontend and the
// flat slot-indexed IR (ir.hpp) — plus the IR optimization pipeline that
// runs between lowering and execution.
//
// Two-phase lifecycle: build the model once as an Expr tree (readable,
// composable, the differential-testing oracle), compile it once, then
// answer every prediction query from the compiled Program. Structural
// models (predict/sor_model.hpp) do exactly this at construction.
//
// Every optimization pass is bit-exact in all three evaluation modes and
// leaves the Monte-Carlo RNG stream untouched (only draw-free structure is
// rewritten), so compile() applies the full pipeline by default and every
// existing bit-level differential test keeps passing. optimize() is also
// exposed directly, with per-pass switches, for testing and diagnostics.
#pragma once

#include "model/expr.hpp"
#include "model/ir.hpp"

namespace sspred::model {

/// Per-pass switches for optimize(). All passes preserve results bit for
/// bit in stochastic, point and Monte-Carlo modes:
///  * fold_constants — rewrites point-valued (parameter- and draw-free)
///    subtrees to single literals, guarded per node on the three modes'
///    arithmetic agreeing exactly;
///  * fuse_groups — flattens single-use max/min chains of one policy
///    (any operand position; Clark's sequential fold is excluded) and
///    head-position sum/prod chains of one dependence into their parent,
///    turning the SOR skeleton's nested reductions into wide variadic ops;
///  * eliminate_dead — drops nodes unreachable from the root (the
///    leftovers of folding and fusion) and reports table slots no
///    surviving node reads (the blocked sampler never draws for them).
struct OptimizeOptions {
  bool fold_constants = true;
  bool fuse_groups = true;
  bool eliminate_dead = true;
};

/// What optimize() did, for tests and diagnostics.
struct OptimizeStats {
  std::size_t folded = 0;         ///< non-leaf nodes rewritten to literals
  std::size_t fused = 0;          ///< chain links flattened into parents
  std::size_t removed_nodes = 0;  ///< nodes dropped by the dead-code sweep
  std::size_t dead_slots = 0;     ///< table slots no surviving node reads
};

/// Runs the optimization pipeline over `program`. The result evaluates
/// bit-identically to the input in every mode; the slot table is preserved
/// verbatim so slot ids (and environments) stay valid.
[[nodiscard]] ir::Program optimize(const ir::Program& program,
                                   const OptimizeOptions& options = {},
                                   OptimizeStats* stats = nullptr);

/// Flattens `expr` into a post-order Program with parameters interned to
/// integer slots (slot ids assigned in first-occurrence order), then runs
/// the optimization pipeline.
[[nodiscard]] ir::Program compile(const Expr& expr);

/// Like compile(), but seeds the slot table from `slot_base` so programs
/// compiled from related expressions — a model and its per-component
/// breakdown terms — agree on slot ids and can share one SlotEnvironment.
[[nodiscard]] ir::Program compile(const Expr& expr,
                                  const ir::Program& slot_base);

/// compile() without the optimization pipeline: the raw lowering, kept as
/// the structural baseline for the optimizer's differential tests.
[[nodiscard]] ir::Program compile_unoptimized(const Expr& expr);
[[nodiscard]] ir::Program compile_unoptimized(const Expr& expr,
                                              const ir::Program& slot_base);

/// Binds every slot of `program` from the string-keyed environment
/// (throws the Environment's unbound-parameter error if one is missing).
/// Bridge for callers still holding a tree-style Environment; hot paths
/// should bind slots directly instead.
[[nodiscard]] ir::SlotEnvironment bind_environment(const ir::Program& program,
                                                   const Environment& env);

}  // namespace sspred::model
