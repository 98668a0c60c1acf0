// The paper's structural model for distributed Red-Black SOR (§2.2.1),
// instantiated for a platform + problem configuration:
//
//   ExTime = Σ_{i=1}^{NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
//                             + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]
//
//   Comp_p  = (NumElt_p / 2) · BM(Elt_p) / load_p        (benchmark form)
//   Comm_p  = C · NumElt_msg · Size(Elt) / (BWAvail · DedBW) + 2·Latency
//
// `load_p` and `BWAvail` are model parameters that may be bound to point
// or stochastic values; everything else is a compile-time point value.
//
// Two-phase lifecycle: each model authors its expression as an Expr tree,
// then compiles it once at construction to the flat slot-indexed IR
// (model/ir.hpp). predict()/predict_point()/breakdown() are served from
// the compiled program; the tree stays reachable through expr() as the
// authoring form and differential-testing oracle.
//
// Substitution note (documented in DESIGN.md): on a shared segment the
// per-pair "dedicated bandwidth" during a phase is the segment bandwidth
// divided by the number of simultaneous transfers, so PtToPt carries the
// concurrency factor C = 2·(P-1). The paper's measured BWAvail on real
// ethernet folds the same effect in.
#pragma once

#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "sor/block.hpp"
#include "sor/decomposition.hpp"
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
  /// How the four phase maxima combine within an iteration.
  stoch::Dependence phase_dependence = stoch::Dependence::kUnrelated;
  /// Group-Max resolution policy (§2.3.3).
  stoch::ExtremePolicy max_policy = stoch::ExtremePolicy::kLargestMean;
  /// Computation component form (§2.2.1 offers both).
  ComputeForm compute_form = ComputeForm::kBenchmark;
  /// Op(p, Elt) for the op-count form: operations per element update.
  double ops_per_element = 6.0;
  /// Fold each host's memory-thrashing multiplier into the compute
  /// components. The paper's model does NOT (its Fig. 9 predictions hold
  /// only "for problem sizes which fit within main memory"); enabling
  /// this extends validity beyond the memory boundary.
  bool account_memory = false;
};

class SorStructuralModel {
 public:
  SorStructuralModel(const cluster::PlatformSpec& platform,
                     const sor::SorConfig& config,
                     SorModelOptions options = {});

  /// The authored expression tree (parameters: load params + "bwavail").
  [[nodiscard]] const model::ExprPtr& expr() const noexcept { return expr_; }
  /// The compiled program that serves predictions.
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return program_;
  }

  /// Parameter name for host p's CPU availability.
  [[nodiscard]] const std::string& load_param(std::size_t host) const;
  /// Slot id of host p's load parameter in program().
  [[nodiscard]] std::uint32_t load_slot(std::size_t host) const;
  [[nodiscard]] std::size_t hosts() const noexcept {
    return load_params_.size();
  }
  /// Parameter name for the bandwidth availability fraction.
  [[nodiscard]] static std::string bwavail_param() { return "bwavail"; }
  /// True when the model has a bandwidth parameter (more than one host).
  [[nodiscard]] bool uses_bandwidth() const noexcept {
    return program_.has_slot(bwavail_param());
  }

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

  [[nodiscard]] const sor::StripDecomposition& decomposition() const noexcept {
    return decomp_;
  }

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
  /// Component programs share the main program's slot table, so one slot
  /// environment drives all of them.
  [[nodiscard]] Breakdown breakdown(const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] Breakdown breakdown(const model::Environment& env) const;

 private:
  sor::StripDecomposition decomp_;
  std::vector<std::string> load_params_;
  std::vector<model::ExprPtr> comp_exprs_;  ///< one phase, per host
  model::ExprPtr comm_expr_;                ///< one phase, shared
  model::ExprPtr iteration_expr_;
  model::ExprPtr expr_;
  model::ir::Program program_;                     ///< compiled expr_
  std::vector<model::ir::Program> comp_programs_;  ///< compiled comp_exprs_
  model::ir::Program comm_program_;
  model::ir::Program iteration_program_;
  std::vector<std::uint32_t> load_slots_;
};

/// Structural model for the 2-D block-decomposed SOR: same per-phase
/// compute as strips (half the local elements), but the ghost exchange
/// moves O(n·(pr+pc)) bytes instead of O(n·P).
class BlockStructuralModel {
 public:
  BlockStructuralModel(const cluster::PlatformSpec& platform, std::size_t n,
                       std::size_t iterations, std::size_t pr, std::size_t pc,
                       SorModelOptions options = {});

  [[nodiscard]] const model::ExprPtr& expr() const noexcept { return expr_; }
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] model::Environment make_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;
  [[nodiscard]] model::ir::SlotEnvironment make_slot_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::Environment& env) const;
  [[nodiscard]] double predict_point(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] double predict_point(const model::Environment& env) const;

 private:
  std::vector<std::string> load_params_;
  model::ExprPtr expr_;
  model::ir::Program program_;
  std::vector<std::uint32_t> load_slots_;
};

/// Structural model for the distributed Jacobi application (one full
/// sweep + one ghost exchange per iteration):
///   ExTime = Σ_{i=1}^{NumIts} [ Max_p{Comp_p} + Comm ]
/// Demonstrates that structural modeling composes for applications beyond
/// the paper's SOR.
class JacobiStructuralModel {
 public:
  JacobiStructuralModel(const cluster::PlatformSpec& platform,
                        std::size_t n, std::size_t iterations,
                        SorModelOptions options = {});

  [[nodiscard]] const model::ExprPtr& expr() const noexcept { return expr_; }
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const std::string& load_param(std::size_t host) const;
  [[nodiscard]] model::Environment make_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;
  [[nodiscard]] model::ir::SlotEnvironment make_slot_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::Environment& env) const;
  [[nodiscard]] double predict_point(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] double predict_point(const model::Environment& env) const;

 private:
  std::vector<std::string> load_params_;
  model::ExprPtr expr_;
  model::ir::Program program_;
  std::vector<std::uint32_t> load_slots_;
};

}  // namespace sspred::predict
