// The paper's structural model (§2.2.1) as one type for every application:
// component models Comp_p over load_p and Comm over BWAvail, composed into
// ExTime. Each application contributes one authoring function that builds
// the expression for a platform + problem configuration:
//
//   author_sor — distributed Red-Black SOR over row strips:
//     ExTime = Σ_{i=1}^{NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
//                               + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]
//     Comp_p = (NumElt_p / 2) · BM(Elt_p) / load_p        (benchmark form)
//     Comm_p = C · NumElt_msg · Size(Elt) / (BWAvail · DedBW) + 2·Latency
//   author_block_sor — the same skeleton over a pr × pc block grid: half
//     the block's elements per phase, and a ghost exchange that moves
//     O(n·(pr+pc)) bytes instead of O(n·P);
//   author_jacobi — one full sweep and one ghost exchange per iteration:
//     ExTime = Σ_{i=1}^{NumIts} [ Max_p{Comp_p} + Comm ]
//     (structural modeling composes beyond the paper's SOR).
//
// `load_p` and `BWAvail` are model parameters that may be bound to point
// or stochastic values; everything else is a compile-time point value.
//
// Two-phase lifecycle: an authoring function builds the Expr tree and
// records the component terms it composed it from; StructuralModel
// compiles the tree once, at construction, to the flat slot-indexed IR
// (model/ir.hpp). predict()/predict_point()/predict_monte_carlo() are
// served from that one program; the tree stays reachable through expr()
// as the authoring form and differential-testing oracle. breakdown()
// compiles the component terms against the program's slot table when it
// is called, and caches nothing, so a model shared across threads is
// never written after construction.
//
// Substitution note (documented in DESIGN.md): on a shared segment the
// per-pair "dedicated bandwidth" during a phase is the segment bandwidth
// divided by the number of simultaneous transfers, so PtToPt carries the
// concurrency factor C = 2·(P-1). The paper's measured BWAvail on real
// ethernet folds the same effect in.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "sor/distributed.hpp"

namespace sspred::predict {

/// The two computation component forms the paper offers (§2.2.1):
/// benchmarking (Comp_p2 = NumElt·BM(Elt)) or operation counting
/// (Comp_p1 = NumElt·Op(p,Elt)/CPU_p).
enum class ComputeForm {
  kBenchmark,
  kOpCount,
};

/// Dependence/policy choices for assembling the model (ablation surface).
struct SorModelOptions {
  /// How per-iteration terms accumulate across NumIts. kRelated (default)
  /// models persistent load: a slow machine stays slow all run.
  stoch::Dependence iteration_dependence = stoch::Dependence::kRelated;
  /// How the phase maxima combine within an iteration.
  stoch::Dependence phase_dependence = stoch::Dependence::kUnrelated;
  /// Group-Max resolution policy (§2.3.3).
  stoch::ExtremePolicy max_policy = stoch::ExtremePolicy::kLargestMean;
  /// Computation component form (§2.2.1 offers both; strip SOR only).
  ComputeForm compute_form = ComputeForm::kBenchmark;
  /// Op(p, Elt) for the op-count form: operations per element update.
  double ops_per_element = 6.0;
  /// Fold each host's memory-thrashing multiplier into the compute
  /// components. The paper's model does NOT (its Fig. 9 predictions hold
  /// only "for problem sizes which fit within main memory"); enabling
  /// this extends validity beyond the memory boundary.
  bool account_memory = false;
};

/// An application's authored model: ExTime and the component terms it is
/// composed from (shared subtrees of `expr`).
struct AuthoredModel {
  model::ExprPtr expr;  ///< parameters: load_params + "bwavail" (P > 1)
  std::vector<std::string> load_params;       ///< one per host
  std::vector<model::ExprPtr> comp_per_host;  ///< one compute phase each
  model::ExprPtr comm_per_phase;  ///< one ghost exchange (0 on one host)
  model::ExprPtr per_iteration;
};

/// Red-Black SOR over row strips (config.rows_per_rank, or uniform).
[[nodiscard]] AuthoredModel author_sor(const cluster::PlatformSpec& platform,
                                       const sor::SorConfig& config,
                                       SorModelOptions options = {});
/// Red-Black SOR over a pr × pc block grid; pr·pc must equal the host
/// count.
[[nodiscard]] AuthoredModel author_block_sor(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, std::size_t pr, std::size_t pc,
    SorModelOptions options = {});
/// Jacobi over uniform row strips.
[[nodiscard]] AuthoredModel author_jacobi(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, SorModelOptions options = {});

class StructuralModel {
 public:
  /// Compiles `authored.expr`; the component terms stay uncompiled until
  /// breakdown() asks for them.
  explicit StructuralModel(AuthoredModel authored);

  /// The authored expression tree (parameters: load params + "bwavail").
  [[nodiscard]] const model::ExprPtr& expr() const noexcept {
    return authored_.expr;
  }
  /// The compiled program that serves predictions.
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return program_;
  }

  [[nodiscard]] std::size_t hosts() const noexcept {
    return load_slots_.size();
  }
  /// Parameter name for host p's CPU availability.
  [[nodiscard]] const std::string& load_param(std::size_t host) const;
  /// Slot id of host p's load parameter in program().
  [[nodiscard]] std::uint32_t load_slot(std::size_t host) const;
  /// Parameter name for the bandwidth availability fraction.
  [[nodiscard]] static std::string bwavail_param() { return "bwavail"; }
  /// True when the model has a bandwidth parameter (more than one host).
  [[nodiscard]] bool uses_bandwidth() const noexcept {
    return bwavail_slot_ != kNoSlot;
  }
  /// Slot id of the bandwidth parameter; requires uses_bandwidth().
  [[nodiscard]] std::uint32_t bwavail_slot() const;

  /// Environment with all loads and bwavail bound (string-keyed bridge).
  [[nodiscard]] model::Environment make_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;

  /// Slot environment with all loads and bwavail bound by slot id — the
  /// allocation-light path for per-trial rebinding in experiment loops.
  [[nodiscard]] model::ir::SlotEnvironment make_slot_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;

  /// Stochastic execution-time prediction (compiled §2.3 calculus).
  [[nodiscard]] stoch::StochasticValue predict(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::Environment& env) const;
  /// Conventional point prediction (all parameters collapse to means).
  [[nodiscard]] double predict_point(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] double predict_point(const model::Environment& env) const;

  /// Monte-Carlo prediction: `trials` samples of the compiled program,
  /// drawn by the blocked trial-major engine and summarized as mean ± 2sd.
  /// `ws` keeps the engine's buffers across calls.
  [[nodiscard]] stoch::StochasticValue predict_monte_carlo(
      const model::ir::SlotEnvironment& env, support::Rng& rng,
      std::size_t trials, model::ir::EvalWorkspace& ws) const;

  /// Where a prediction comes from: per-host compute components and the
  /// shared communication component, per iteration and for the whole run.
  struct Breakdown {
    std::vector<stoch::StochasticValue> comp_per_host;  ///< one phase each
    stoch::StochasticValue comm_per_phase;
    stoch::StochasticValue per_iteration;
    stoch::StochasticValue total;
    std::size_t dominant_host = 0;  ///< argmax of comp means
  };

  /// Evaluates the component models separately (same calculus as
  /// predict()) so users can see which host/phase drives the prediction.
  /// Each component is compiled here against program()'s slot table, so
  /// one slot environment drives all of them.
  [[nodiscard]] Breakdown breakdown(const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] Breakdown breakdown(const model::Environment& env) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  AuthoredModel authored_;
  model::ir::Program program_;  ///< compiled authored_.expr
  std::vector<std::uint32_t> load_slots_;
  std::uint32_t bwavail_slot_ = kNoSlot;
};

}  // namespace sspred::predict
