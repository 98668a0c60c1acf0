// Distributed Red-Black SOR over the simulated message-passing cluster.
//
// The real numerics of SerialSor, at the optimal relaxation factor for the
// grid, run on strip-decomposed local grids (sor/stencil.hpp); the
// costs of each red/black compute phase are charged to virtual time
// through each host's availability trace, and boundary-row exchanges go
// through the shared-ethernet model. Per-rank, per-iteration phase timings
// are recorded — the measurements the paper's structural model predicts.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "cluster/platform.hpp"
#include "sim/engine.hpp"
#include "sor/decomposition.hpp"
#include "support/units.hpp"

namespace sspred::sor {

struct SorConfig {
  std::size_t n = 512;           ///< interior grid dimension (NxN)
  std::size_t iterations = 30;   ///< red+black iterations
  /// Execute the actual floating-point sweeps. Disable for timing-only
  /// parameter sweeps (virtual times are identical either way).
  bool real_numerics = true;
  /// Gather the final interior into SorResult::solution on rank 0.
  bool gather_solution = false;
  /// Custom strip heights; empty selects the uniform decomposition.
  std::vector<std::size_t> rows_per_rank;
  /// Extra pre-loop delay injected on rank 0 (skew demonstration, Fig. 7).
  support::Seconds rank0_initial_delay = 0.0;
  /// Overlap communication with computation: sweep the strip's boundary
  /// rows first, send them, then sweep the interior while the ghost
  /// exchanges are in flight. Numerically identical; hides most of the
  /// per-phase communication cost.
  bool overlap_comm = false;
  /// Adaptive rebalancing: every `rebalance_interval` iterations the ranks
  /// gather measured per-row compute times, rank 0 derives a new
  /// capacity-balanced decomposition, and the grid migrates (full
  /// gather/scatter whose transfer costs are paid through the fabric).
  /// 0 disables. Numerically identical to the static run.
  std::size_t rebalance_interval = 0;
};

/// Durations of the four phases of one iteration on one rank.
struct PhaseTiming {
  support::Seconds red_comp = 0.0;
  support::Seconds red_comm = 0.0;
  support::Seconds black_comp = 0.0;
  support::Seconds black_comm = 0.0;

  [[nodiscard]] support::Seconds total() const noexcept {
    return red_comp + red_comm + black_comp + black_comm;
  }
};

struct RankStats {
  std::vector<PhaseTiming> iterations;
  std::vector<support::Seconds> iteration_end;  ///< absolute end times
};

/// One adaptive-rebalance event (time, migration cost, new layout).
struct RebalanceEvent {
  support::Seconds at = 0.0;
  support::Seconds duration = 0.0;  ///< measure + migrate + ghost refresh
  std::vector<std::size_t> rows;
};

struct SorResult {
  support::Seconds start_time = 0.0;
  support::Seconds total_time = 0.0;  ///< wall (virtual) time of the run
  std::vector<RebalanceEvent> rebalances;
  std::vector<RankStats> ranks;
  double residual = std::numeric_limits<double>::quiet_NaN();
  double solution_error = std::numeric_limits<double>::quiet_NaN();
  /// Row-major n x n interior (only when gather_solution was set).
  std::vector<double> solution;

  /// Max-over-ranks duration of iteration `it`'s phases summed.
  [[nodiscard]] support::Seconds iteration_time(std::size_t it) const;
};

/// Runs the distributed SOR on `platform`, starting at virtual time
/// `start_time` (the engine is advanced there first). Returns when all
/// ranks have finished; the engine is left at the finish time.
[[nodiscard]] SorResult run_distributed_sor(sim::Engine& engine,
                                            cluster::Platform& platform,
                                            const SorConfig& config,
                                            support::Seconds start_time = 0.0);

/// The decomposition a config implies on a platform.
[[nodiscard]] StripDecomposition make_decomposition(
    const cluster::Platform& platform, const SorConfig& config);

}  // namespace sspred::sor
