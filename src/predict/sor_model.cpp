#include "predict/sor_model.hpp"

#include "mpi/comm.hpp"
#include "support/error.hpp"

namespace sspred::predict {

using model::constant;
using model::ExprPtr;
using model::param;
using model::quotient;
using model::vmax;
using stoch::Dependence;
using stoch::StochasticValue;

namespace {

/// Fabric-dependent communication profile for one ghost-exchange phase.
struct CommProfile {
  double concurrency;                   ///< simultaneous transfers per link
  support::BytesPerSecond bandwidth;    ///< the contended link's capacity
  support::Seconds latency;
};

[[nodiscard]] CommProfile comm_profile(const cluster::PlatformSpec& platform) {
  const double p_count = static_cast<double>(platform.hosts.size());
  if (platform.fabric == cluster::FabricKind::kSharedSegment) {
    // All 2(P-1) ghost messages of a phase share one segment.
    return {2.0 * (p_count - 1.0), platform.ethernet.nominal_bandwidth,
            platform.ethernet.latency};
  }
  // Switched: contention only at each NIC — at most 2 messages per
  // direction per host in a phase.
  return {std::min(2.0, p_count - 1.0), platform.switched.link_bandwidth,
          platform.switched.latency};
}

/// Binds loads (by cached slot id) and, when the model has one, the
/// bandwidth parameter into a fresh slot environment.
[[nodiscard]] model::ir::SlotEnvironment make_slot_env_for(
    const model::ir::Program& program,
    std::span<const std::uint32_t> load_slots,
    std::span<const StochasticValue> loads, StochasticValue bwavail) {
  SSPRED_REQUIRE(loads.size() == load_slots.size(),
                 "need one load value per host");
  model::ir::SlotEnvironment env = program.make_environment();
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(load_slots[p], loads[p]);
  }
  if (program.has_slot(SorStructuralModel::bwavail_param())) {
    env.bind(program.slot(SorStructuralModel::bwavail_param()), bwavail);
  }
  return env;
}

/// Binds loads and bwavail into a string-keyed Environment (bridge path).
[[nodiscard]] model::Environment make_string_env(
    std::span<const std::string> load_params,
    std::span<const StochasticValue> loads, StochasticValue bwavail) {
  SSPRED_REQUIRE(loads.size() == load_params.size(),
                 "need one load value per host");
  model::Environment env;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(load_params[p], loads[p]);
  }
  env.bind(SorStructuralModel::bwavail_param(), bwavail);
  return env;
}

}  // namespace

SorStructuralModel::SorStructuralModel(const cluster::PlatformSpec& platform,
                                       const sor::SorConfig& config,
                                       SorModelOptions options)
    : decomp_(config.rows_per_rank.empty()
                  ? sor::StripDecomposition::uniform(config.n,
                                                     platform.hosts.size())
                  : sor::StripDecomposition(config.n, config.rows_per_rank)) {
  SSPRED_REQUIRE(!platform.hosts.empty(), "platform has no hosts");
  const std::size_t p_count = platform.hosts.size();
  load_params_.reserve(p_count);
  for (const auto& host : platform.hosts) {
    load_params_.push_back("load/" + host.machine.name);
  }

  // --- Computation components, one of the paper's two forms:
  //   benchmark: Comp_p = (NumElt_p / 2) · BM(Elt_p) / load_p
  //   op-count:  Comp_p = (NumElt_p / 2) · Op(p,Elt) / CPU_p / load_p
  // optionally inflated by the host's memory-thrashing multiplier.
  std::vector<ExprPtr> comp_terms;
  comp_terms.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    const auto& mspec = platform.hosts[p].machine;
    const double per_element =
        options.compute_form == ComputeForm::kBenchmark
            ? mspec.bm_seconds_per_element
            : options.ops_per_element / mspec.ops_per_second;
    double dedicated_phase_seconds =
        decomp_.elements(p) / 2.0 * per_element;
    if (options.account_memory) {
      const double working_set =
          2.0 * static_cast<double>(decomp_.rows(p) + 2) *
          (static_cast<double>(config.n) + 2.0);
      dedicated_phase_seconds *= mspec.slowdown_factor(working_set);
    }
    comp_terms.push_back(quotient(constant(dedicated_phase_seconds),
                                  param(load_params_[p]),
                                  Dependence::kUnrelated));
  }
  comp_exprs_ = comp_terms;
  const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

  // --- Communication components (identical across interior ranks once the
  // fabric's concurrency is folded in; see header note).
  //   bytes per ghost message: (n+2) elements + header
  //   C = simultaneous transfers on the contended link per phase
  //       (2·(P-1) on a shared segment; ≤2 per NIC when switched).
  const double msg_bytes =
      (static_cast<double>(config.n) + 2.0) * sizeof(double) +
      mpi::Comm::kHeaderBytes;
  const CommProfile profile = comm_profile(platform);
  const ExprPtr max_comm = [&]() -> ExprPtr {
    if (p_count < 2) {
      return constant(StochasticValue(0.0));  // single host: no comm
    }
    const double dedicated_phase_seconds =
        profile.concurrency * msg_bytes / profile.bandwidth;
    // In a phase all transfers start and complete together under fair
    // sharing, so a rank's comm phase ends one latency after the shared
    // bulk completes.
    return model::add(
        quotient(constant(dedicated_phase_seconds), param(bwavail_param()),
                 Dependence::kUnrelated),
        constant(profile.latency), Dependence::kRelated);
  }();

  // --- One iteration: red/black compute (same load params -> related) plus
  // red/black comm (same bandwidth -> related); compute vs comm unrelated.
  comm_expr_ = max_comm;
  const ExprPtr comp_both =
      model::add(max_comp, max_comp, Dependence::kRelated);
  const ExprPtr comm_both =
      model::add(max_comm, max_comm, Dependence::kRelated);
  iteration_expr_ = model::add(comp_both, comm_both, options.phase_dependence);

  // --- Full run: Σ over NumIts.
  expr_ = model::iterate(iteration_expr_, config.iterations,
                         options.iteration_dependence);

  // --- Compile once; all queries below are served from the flat program.
  // The component programs share the main program's slot table so one
  // slot environment drives predict() and breakdown() alike.
  program_ = model::compile(*expr_);
  comp_programs_.reserve(comp_exprs_.size());
  for (const auto& comp : comp_exprs_) {
    comp_programs_.push_back(model::compile(*comp, program_));
  }
  comm_program_ = model::compile(*comm_expr_, program_);
  iteration_program_ = model::compile(*iteration_expr_, program_);
  load_slots_.reserve(load_params_.size());
  for (const auto& name : load_params_) {
    load_slots_.push_back(program_.slot(name));
  }
}

const std::string& SorStructuralModel::load_param(std::size_t host) const {
  SSPRED_REQUIRE(host < load_params_.size(), "host index out of range");
  return load_params_[host];
}

std::uint32_t SorStructuralModel::load_slot(std::size_t host) const {
  SSPRED_REQUIRE(host < load_slots_.size(), "host index out of range");
  return load_slots_[host];
}

model::Environment SorStructuralModel::make_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_string_env(load_params_, loads, bwavail);
}

model::ir::SlotEnvironment SorStructuralModel::make_slot_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_slot_env_for(program_, load_slots_, loads, bwavail);
}

StochasticValue SorStructuralModel::predict(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate(env);
}

StochasticValue SorStructuralModel::predict(
    const model::Environment& env) const {
  return program_.evaluate(model::bind_environment(program_, env));
}

double SorStructuralModel::predict_point(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate_point(env);
}

double SorStructuralModel::predict_point(const model::Environment& env) const {
  return program_.evaluate_point(model::bind_environment(program_, env));
}

StochasticValue SorStructuralModel::predict_monte_carlo(
    const model::ir::SlotEnvironment& env, support::Rng& rng,
    std::size_t trials, model::ir::EvalWorkspace& ws) const {
  return program_.sample_trials(env, rng, trials, ws);
}

SorStructuralModel::Breakdown SorStructuralModel::breakdown(
    const model::ir::SlotEnvironment& env) const {
  Breakdown b;
  model::ir::EvalWorkspace ws;  // shared across the component programs
  b.comp_per_host.reserve(comp_programs_.size());
  double best_mean = -1.0;
  for (std::size_t p = 0; p < comp_programs_.size(); ++p) {
    b.comp_per_host.push_back(comp_programs_[p].evaluate(env, ws));
    if (b.comp_per_host.back().mean() > best_mean) {
      best_mean = b.comp_per_host.back().mean();
      b.dominant_host = p;
    }
  }
  b.comm_per_phase = comm_program_.evaluate(env, ws);
  b.per_iteration = iteration_program_.evaluate(env, ws);
  b.total = program_.evaluate(env, ws);
  return b;
}

SorStructuralModel::Breakdown SorStructuralModel::breakdown(
    const model::Environment& env) const {
  return breakdown(model::bind_environment(program_, env));
}

BlockStructuralModel::BlockStructuralModel(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, std::size_t pr, std::size_t pc,
    SorModelOptions options) {
  const std::size_t p_count = platform.hosts.size();
  SSPRED_REQUIRE(pr * pc == p_count, "pr*pc must equal the host count");
  load_params_.reserve(p_count);
  for (const auto& host : platform.hosts) {
    load_params_.push_back("load/" + host.machine.name);
  }

  // Comp_p: half the block's elements per color phase.
  std::vector<ExprPtr> comp_terms;
  comp_terms.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    const std::size_t rows = sor::block_extent(n, pr, p / pc);
    const std::size_t cols = sor::block_extent(n, pc, p % pc);
    const auto& mspec = platform.hosts[p].machine;
    double dedicated = static_cast<double>(rows) *
                       static_cast<double>(cols) / 2.0 *
                       mspec.bm_seconds_per_element;
    if (options.account_memory) {
      const double working_set = 2.0 * static_cast<double>(rows + 2) *
                                 static_cast<double>(cols + 2);
      dedicated *= mspec.slowdown_factor(working_set);
    }
    comp_terms.push_back(quotient(constant(dedicated), param(load_params_[p]),
                                  Dependence::kUnrelated));
  }
  const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

  // Comm per phase: boundary bytes scale with (pr-1)+(pc-1) grid cuts.
  const double msgs = 2.0 * static_cast<double>(pc) *
                          (static_cast<double>(pr) - 1.0) +
                      2.0 * static_cast<double>(pr) *
                          (static_cast<double>(pc) - 1.0);
  const double boundary_bytes =
      16.0 * static_cast<double>(n) *
          ((static_cast<double>(pr) - 1.0) + (static_cast<double>(pc) - 1.0)) +
      mpi::Comm::kHeaderBytes * msgs;
  const CommProfile profile = comm_profile(platform);
  const ExprPtr max_comm = [&]() -> ExprPtr {
    if (p_count < 2) return constant(StochasticValue(0.0));
    double dedicated_phase_seconds = 0.0;
    if (platform.fabric == cluster::FabricKind::kSharedSegment) {
      dedicated_phase_seconds = boundary_bytes / profile.bandwidth;
    } else {
      // Switched: an interior NIC carries up to 4 messages per phase.
      const double nic_bytes =
          (2.0 * static_cast<double>(n) / static_cast<double>(pc) +
           2.0 * static_cast<double>(n) / static_cast<double>(pr)) *
              sizeof(double) +
          4.0 * mpi::Comm::kHeaderBytes;
      dedicated_phase_seconds = nic_bytes / profile.bandwidth;
    }
    return model::add(
        quotient(constant(dedicated_phase_seconds),
                 param(SorStructuralModel::bwavail_param()),
                 Dependence::kUnrelated),
        constant(profile.latency), Dependence::kRelated);
  }();

  const ExprPtr comp_both = model::add(max_comp, max_comp,
                                       Dependence::kRelated);
  const ExprPtr comm_both = model::add(max_comm, max_comm,
                                       Dependence::kRelated);
  const ExprPtr iteration =
      model::add(comp_both, comm_both, options.phase_dependence);
  expr_ = model::iterate(iteration, iterations, options.iteration_dependence);

  program_ = model::compile(*expr_);
  load_slots_.reserve(load_params_.size());
  for (const auto& name : load_params_) {
    load_slots_.push_back(program_.slot(name));
  }
}

model::Environment BlockStructuralModel::make_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_string_env(load_params_, loads, bwavail);
}

model::ir::SlotEnvironment BlockStructuralModel::make_slot_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_slot_env_for(program_, load_slots_, loads, bwavail);
}

StochasticValue BlockStructuralModel::predict(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate(env);
}

StochasticValue BlockStructuralModel::predict(
    const model::Environment& env) const {
  return program_.evaluate(model::bind_environment(program_, env));
}

double BlockStructuralModel::predict_point(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate_point(env);
}

double BlockStructuralModel::predict_point(
    const model::Environment& env) const {
  return program_.evaluate_point(model::bind_environment(program_, env));
}

JacobiStructuralModel::JacobiStructuralModel(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, SorModelOptions options) {
  SSPRED_REQUIRE(!platform.hosts.empty(), "platform has no hosts");
  const std::size_t p_count = platform.hosts.size();
  const sor::StripDecomposition decomp =
      sor::StripDecomposition::uniform(n, p_count);
  load_params_.reserve(p_count);
  for (const auto& host : platform.hosts) {
    load_params_.push_back("load/" + host.machine.name);
  }

  // Comp_p: the full strip once per iteration.
  std::vector<ExprPtr> comp_terms;
  comp_terms.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    const auto& mspec = platform.hosts[p].machine;
    double dedicated = decomp.elements(p) * mspec.bm_seconds_per_element;
    if (options.account_memory) {
      const double working_set =
          2.0 * static_cast<double>(decomp.rows(p) + 2) *
          (static_cast<double>(n) + 2.0);
      dedicated *= mspec.slowdown_factor(working_set);
    }
    comp_terms.push_back(quotient(constant(dedicated), param(load_params_[p]),
                                  Dependence::kUnrelated));
  }
  const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

  // Comm: one ghost exchange per iteration on the platform's fabric.
  const double msg_bytes =
      (static_cast<double>(n) + 2.0) * sizeof(double) +
      mpi::Comm::kHeaderBytes;
  const CommProfile profile = comm_profile(platform);
  const ExprPtr comm = [&]() -> ExprPtr {
    if (p_count < 2) return constant(StochasticValue(0.0));
    return model::add(
        quotient(constant(profile.concurrency * msg_bytes /
                          profile.bandwidth),
                 param(SorStructuralModel::bwavail_param()),
                 Dependence::kUnrelated),
        constant(profile.latency), Dependence::kRelated);
  }();

  const ExprPtr iteration =
      model::add(max_comp, comm, options.phase_dependence);
  expr_ = model::iterate(iteration, iterations, options.iteration_dependence);

  program_ = model::compile(*expr_);
  load_slots_.reserve(load_params_.size());
  for (const auto& name : load_params_) {
    load_slots_.push_back(program_.slot(name));
  }
}

const std::string& JacobiStructuralModel::load_param(std::size_t host) const {
  SSPRED_REQUIRE(host < load_params_.size(), "host index out of range");
  return load_params_[host];
}

model::Environment JacobiStructuralModel::make_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_string_env(load_params_, loads, bwavail);
}

model::ir::SlotEnvironment JacobiStructuralModel::make_slot_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  return make_slot_env_for(program_, load_slots_, loads, bwavail);
}

StochasticValue JacobiStructuralModel::predict(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate(env);
}

StochasticValue JacobiStructuralModel::predict(
    const model::Environment& env) const {
  return program_.evaluate(model::bind_environment(program_, env));
}

double JacobiStructuralModel::predict_point(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate_point(env);
}

double JacobiStructuralModel::predict_point(
    const model::Environment& env) const {
  return program_.evaluate_point(model::bind_environment(program_, env));
}

}  // namespace sspred::predict
