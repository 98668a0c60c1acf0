#include "predict/sor_model.hpp"

#include "mpi/comm.hpp"
#include "sor/block.hpp"
#include "sor/decomposition.hpp"
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

/// "load/<machine name>" for every host.
[[nodiscard]] std::vector<std::string> load_params_of(
    const cluster::PlatformSpec& platform) {
  std::vector<std::string> names;
  names.reserve(platform.hosts.size());
  for (const auto& host : platform.hosts) {
    names.push_back("load/" + host.machine.name);
  }
  return names;
}

/// Comp_p = dedicated / load_p.
[[nodiscard]] ExprPtr compute_term(double dedicated_seconds,
                                   const std::string& load_param) {
  return quotient(constant(dedicated_seconds), param(load_param),
                  Dependence::kUnrelated);
}

/// One ghost exchange: the shared bulk transfer slowed by BWAvail, then
/// one latency. In a phase all transfers start and complete together
/// under fair sharing, so a rank's comm phase ends one latency after the
/// shared bulk completes. A single host exchanges nothing.
[[nodiscard]] ExprPtr exchange_term(std::size_t p_count,
                                    double dedicated_seconds,
                                    support::Seconds latency) {
  if (p_count < 2) return constant(StochasticValue(0.0));
  return model::add(quotient(constant(dedicated_seconds),
                             param(StructuralModel::bwavail_param()),
                             Dependence::kUnrelated),
                    constant(latency), Dependence::kRelated);
}

/// Red and black phases of one SOR iteration: compute twice under the
/// same load parameters (related), communication twice under the same
/// bandwidth (related); compute vs comm as the options say.
[[nodiscard]] ExprPtr red_black_iteration(const ExprPtr& max_comp,
                                          const ExprPtr& max_comm,
                                          const SorModelOptions& options) {
  const ExprPtr comp_both =
      model::add(max_comp, max_comp, Dependence::kRelated);
  const ExprPtr comm_both =
      model::add(max_comm, max_comm, Dependence::kRelated);
  return model::add(comp_both, comm_both, options.phase_dependence);
}

}  // namespace

AuthoredModel author_sor(const cluster::PlatformSpec& platform,
                         const sor::SorConfig& config,
                         SorModelOptions options) {
  SSPRED_REQUIRE(!platform.hosts.empty(), "platform has no hosts");
  const std::size_t p_count = platform.hosts.size();
  const sor::StripDecomposition decomp =
      config.rows_per_rank.empty()
          ? sor::StripDecomposition::uniform(config.n, p_count)
          : sor::StripDecomposition(config.n, config.rows_per_rank);
  AuthoredModel m;
  m.load_params = load_params_of(platform);

  // --- Computation components, one of the paper's two forms:
  //   benchmark: Comp_p = (NumElt_p / 2) · BM(Elt_p) / load_p
  //   op-count:  Comp_p = (NumElt_p / 2) · Op(p,Elt) / CPU_p / load_p
  // optionally inflated by the host's memory-thrashing multiplier.
  m.comp_per_host.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    const auto& mspec = platform.hosts[p].machine;
    const double per_element =
        options.compute_form == ComputeForm::kBenchmark
            ? mspec.bm_seconds_per_element
            : options.ops_per_element / mspec.ops_per_second;
    double dedicated_phase_seconds = decomp.elements(p) / 2.0 * per_element;
    if (options.account_memory) {
      const double working_set =
          2.0 * static_cast<double>(decomp.rows(p) + 2) *
          (static_cast<double>(config.n) + 2.0);
      dedicated_phase_seconds *= mspec.slowdown_factor(working_set);
    }
    m.comp_per_host.push_back(
        compute_term(dedicated_phase_seconds, m.load_params[p]));
  }

  // --- Communication components (identical across interior ranks once the
  // fabric's concurrency is folded in; see header note).
  //   bytes per ghost message: (n+2) elements + header
  //   C = simultaneous transfers on the contended link per phase
  //       (2·(P-1) on a shared segment; ≤2 per NIC when switched).
  const double msg_bytes =
      (static_cast<double>(config.n) + 2.0) * sizeof(double) +
      mpi::Comm::kHeaderBytes;
  const CommProfile profile = comm_profile(platform);
  m.comm_per_phase = exchange_term(
      p_count, profile.concurrency * msg_bytes / profile.bandwidth,
      profile.latency);

  // --- One iteration, then the full run: Σ over NumIts.
  m.per_iteration = red_black_iteration(
      vmax(m.comp_per_host, options.max_policy), m.comm_per_phase, options);
  m.expr = model::iterate(m.per_iteration, config.iterations,
                          options.iteration_dependence);
  return m;
}

AuthoredModel author_block_sor(const cluster::PlatformSpec& platform,
                               std::size_t n, std::size_t iterations,
                               std::size_t pr, std::size_t pc,
                               SorModelOptions options) {
  const std::size_t p_count = platform.hosts.size();
  SSPRED_REQUIRE(pr * pc == p_count, "pr*pc must equal the host count");
  AuthoredModel m;
  m.load_params = load_params_of(platform);

  // Comp_p: half the block's elements per color phase.
  m.comp_per_host.reserve(p_count);
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
    m.comp_per_host.push_back(compute_term(dedicated, m.load_params[p]));
  }

  // Comm per phase: boundary bytes scale with (pr-1)+(pc-1) grid cuts.
  const CommProfile profile = comm_profile(platform);
  double dedicated_phase_seconds = 0.0;
  if (platform.fabric == cluster::FabricKind::kSharedSegment) {
    const double msgs = 2.0 * static_cast<double>(pc) *
                            (static_cast<double>(pr) - 1.0) +
                        2.0 * static_cast<double>(pr) *
                            (static_cast<double>(pc) - 1.0);
    const double boundary_bytes =
        16.0 * static_cast<double>(n) *
            ((static_cast<double>(pr) - 1.0) +
             (static_cast<double>(pc) - 1.0)) +
        mpi::Comm::kHeaderBytes * msgs;
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
  m.comm_per_phase =
      exchange_term(p_count, dedicated_phase_seconds, profile.latency);

  m.per_iteration = red_black_iteration(
      vmax(m.comp_per_host, options.max_policy), m.comm_per_phase, options);
  m.expr = model::iterate(m.per_iteration, iterations,
                          options.iteration_dependence);
  return m;
}

AuthoredModel author_jacobi(const cluster::PlatformSpec& platform,
                            std::size_t n, std::size_t iterations,
                            SorModelOptions options) {
  SSPRED_REQUIRE(!platform.hosts.empty(), "platform has no hosts");
  const std::size_t p_count = platform.hosts.size();
  const sor::StripDecomposition decomp =
      sor::StripDecomposition::uniform(n, p_count);
  AuthoredModel m;
  m.load_params = load_params_of(platform);

  // Comp_p: the full strip once per iteration.
  m.comp_per_host.reserve(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    const auto& mspec = platform.hosts[p].machine;
    double dedicated = decomp.elements(p) * mspec.bm_seconds_per_element;
    if (options.account_memory) {
      const double working_set =
          2.0 * static_cast<double>(decomp.rows(p) + 2) *
          (static_cast<double>(n) + 2.0);
      dedicated *= mspec.slowdown_factor(working_set);
    }
    m.comp_per_host.push_back(compute_term(dedicated, m.load_params[p]));
  }

  // Comm: one ghost exchange per iteration on the platform's fabric.
  const double msg_bytes =
      (static_cast<double>(n) + 2.0) * sizeof(double) +
      mpi::Comm::kHeaderBytes;
  const CommProfile profile = comm_profile(platform);
  m.comm_per_phase = exchange_term(
      p_count, profile.concurrency * msg_bytes / profile.bandwidth,
      profile.latency);

  m.per_iteration =
      model::add(vmax(m.comp_per_host, options.max_policy), m.comm_per_phase,
                 options.phase_dependence);
  m.expr = model::iterate(m.per_iteration, iterations,
                          options.iteration_dependence);
  return m;
}

StructuralModel::StructuralModel(AuthoredModel authored)
    : authored_(std::move(authored)),
      program_(model::compile(*authored_.expr)) {
  load_slots_.reserve(authored_.load_params.size());
  for (const auto& name : authored_.load_params) {
    load_slots_.push_back(program_.slot(name));
  }
  if (program_.has_slot(bwavail_param())) {
    bwavail_slot_ = program_.slot(bwavail_param());
  }
}

const std::string& StructuralModel::load_param(std::size_t host) const {
  SSPRED_REQUIRE(host < authored_.load_params.size(),
                 "host index out of range");
  return authored_.load_params[host];
}

std::uint32_t StructuralModel::load_slot(std::size_t host) const {
  SSPRED_REQUIRE(host < load_slots_.size(), "host index out of range");
  return load_slots_[host];
}

std::uint32_t StructuralModel::bwavail_slot() const {
  SSPRED_REQUIRE(uses_bandwidth(), "model has no bandwidth parameter");
  return bwavail_slot_;
}

model::Environment StructuralModel::make_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  SSPRED_REQUIRE(loads.size() == authored_.load_params.size(),
                 "need one load value per host");
  model::Environment env;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(authored_.load_params[p], loads[p]);
  }
  env.bind(bwavail_param(), bwavail);
  return env;
}

model::ir::SlotEnvironment StructuralModel::make_slot_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  SSPRED_REQUIRE(loads.size() == load_slots_.size(),
                 "need one load value per host");
  model::ir::SlotEnvironment env = program_.make_environment();
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(load_slots_[p], loads[p]);
  }
  if (uses_bandwidth()) env.bind(bwavail_slot_, bwavail);
  return env;
}

StochasticValue StructuralModel::predict(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate(env);
}

StochasticValue StructuralModel::predict(const model::Environment& env) const {
  return program_.evaluate(model::bind_environment(program_, env));
}

double StructuralModel::predict_point(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate_point(env);
}

double StructuralModel::predict_point(const model::Environment& env) const {
  return program_.evaluate_point(model::bind_environment(program_, env));
}

StochasticValue StructuralModel::predict_monte_carlo(
    const model::ir::SlotEnvironment& env, support::Rng& rng,
    std::size_t trials, model::ir::EvalWorkspace& ws) const {
  return program_.sample_trials(env, rng, trials, ws);
}

StructuralModel::Breakdown StructuralModel::breakdown(
    const model::ir::SlotEnvironment& env) const {
  model::ir::EvalWorkspace ws;  // shared across the component programs
  const auto evaluate = [&](const ExprPtr& term) {
    return model::compile(*term, program_).evaluate(env, ws);
  };
  Breakdown b;
  b.comp_per_host.reserve(authored_.comp_per_host.size());
  double best_mean = -1.0;
  for (std::size_t p = 0; p < authored_.comp_per_host.size(); ++p) {
    b.comp_per_host.push_back(evaluate(authored_.comp_per_host[p]));
    if (b.comp_per_host.back().mean() > best_mean) {
      best_mean = b.comp_per_host.back().mean();
      b.dominant_host = p;
    }
  }
  b.comm_per_phase = evaluate(authored_.comm_per_phase);
  b.per_iteration = evaluate(authored_.per_iteration);
  b.total = program_.evaluate(env, ws);
  return b;
}

StructuralModel::Breakdown StructuralModel::breakdown(
    const model::Environment& env) const {
  return breakdown(model::bind_environment(program_, env));
}

}  // namespace sspred::predict
