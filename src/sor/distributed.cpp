#include "sor/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "sor/stencil.hpp"
#include "support/error.hpp"

namespace sspred::sor {

namespace {

/// Shared state for one run, owned by run_distributed_sor's frame.
struct RunShared {
  SorConfig config;
  StripDecomposition decomp;
  SorResult result;
};

// Tags: 2*iteration + phase for the ghost exchange; reserved bases for the
// rebalance protocol (outside that range and the collectives' range).
constexpr int kMigrateTagBase = 3'000'000;
constexpr int kRefreshTagBase = 4'000'000;

sim::Task<> sor_rank(mpi::RankCtx ctx, RunShared* shared) {
  const auto rank = static_cast<std::size_t>(ctx.rank());
  const SorConfig& cfg = shared->config;
  const StripDecomposition& decomp = shared->decomp;
  const std::size_t n = cfg.n;
  const auto neighbours = strip_neighbours(ctx);

  // The layout may change at rebalance points; every rank tracks the full
  // row layout so begins stay consistent.
  std::vector<std::size_t> layout(static_cast<std::size_t>(ctx.size()));
  for (std::size_t p = 0; p < layout.size(); ++p) layout[p] = decomp.rows(p);
  auto my_begin = [&] {
    std::size_t b = 0;
    for (std::size_t p = 0; p < rank; ++p) b += layout[p];
    return b;
  };

  LocalGrid grid = LocalGrid::strip(n, my_begin(), layout[rank]);
  RankStats& stats = shared->result.ranks[rank];
  stats.iterations.reserve(cfg.iterations);
  stats.iteration_end.reserve(cfg.iterations);

  if (ctx.rank() == 0 && cfg.rank0_initial_delay > 0.0) {
    co_await ctx.compute(cfg.rank0_initial_delay);
  }

  // Half the strip's elements are updated per color phase.
  auto phase_work_now = [&] {
    return ctx.machine().element_work(grid.elements() / 2.0,
                                      grid.working_set());
  };
  support::Seconds phase_work = phase_work_now();

  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    PhaseTiming timing;
    for (int phase = 0; phase < 2; ++phase) {
      const bool red = phase == 0;
      const int tag = 2 * static_cast<int>(it) + phase;

      const support::Seconds t0 = ctx.now();
      support::Seconds t1 = t0;
      if (cfg.overlap_comm && layout[rank] >= 2) {
        // Sweep the boundary rows, send them, then sweep the interior
        // while the ghost rows travel.
        const std::size_t rows = layout[rank];
        const double boundary_share =
            std::min(2.0, static_cast<double>(rows)) /
            static_cast<double>(rows);
        if (cfg.real_numerics) {
          grid.sor_sweep(red, 0, 1);
          grid.sor_sweep(red, rows - 1, rows);
        }
        co_await ctx.compute(phase_work * boundary_share);
        post_halo(ctx, tag, grid, neighbours);
        if (cfg.real_numerics) grid.sor_sweep(red, 1, rows - 1);
        co_await ctx.compute(phase_work * (1.0 - boundary_share));
        t1 = ctx.now();
      } else {
        if (cfg.real_numerics) grid.sor_sweep(red);
        co_await ctx.compute(phase_work);
        t1 = ctx.now();
        post_halo(ctx, tag, grid, neighbours);
      }
      co_await await_halo(ctx, tag, grid, neighbours);
      const support::Seconds t2 = ctx.now();

      if (red) {
        timing.red_comp = t1 - t0;
        timing.red_comm = t2 - t1;
      } else {
        timing.black_comp = t1 - t0;
        timing.black_comm = t2 - t1;
      }
    }
    stats.iterations.push_back(timing);
    stats.iteration_end.push_back(ctx.now());

    // Adaptive rebalancing: measure, re-decompose, migrate.
    if (cfg.rebalance_interval > 0 &&
        (it + 1) % cfg.rebalance_interval == 0 && it + 1 < cfg.iterations) {
      const support::Seconds rb_start = ctx.now();
      const int round = static_cast<int>((it + 1) / cfg.rebalance_interval);

      // 1. Per-row compute time over the last interval (captures both the
      //    machine's speed and its current load).
      double recent = 0.0;
      for (std::size_t k = stats.iterations.size() - cfg.rebalance_interval;
           k < stats.iterations.size(); ++k) {
        recent += stats.iterations[k].red_comp + stats.iterations[k].black_comp;
      }
      const double per_row = recent / static_cast<double>(layout[rank]);
      // (named variable: GCC 12 miscompiles initializer-list temporaries
      // inside co_await expressions - "array used as initializer")
      mpi::Payload measurement;
      measurement.push_back(per_row);
      mpi::Payload gathered = co_await ctx.gather(std::move(measurement));

      // 2. Rank 0 derives the capacity-balanced layout and broadcasts it.
      mpi::Payload layout_msg;
      if (ctx.rank() == 0) {
        std::vector<double> capacity(gathered.size());
        for (std::size_t p = 0; p < gathered.size(); ++p) {
          capacity[p] = 1.0 / std::max(gathered[p], 1e-12);
        }
        const auto balanced = StripDecomposition::weighted(n, capacity);
        for (std::size_t p = 0; p < capacity.size(); ++p) {
          layout_msg.push_back(static_cast<double>(balanced.rows(p)));
        }
      }
      layout_msg = co_await ctx.bcast(std::move(layout_msg));
      std::vector<std::size_t> new_layout(layout_msg.size());
      for (std::size_t p = 0; p < layout_msg.size(); ++p) {
        new_layout[p] = static_cast<std::size_t>(layout_msg[p] + 0.5);
      }

      // Only migrate when the layout shift is worth the full-grid
      // transfer cost (a ~10% strip-height change); later rounds settle.
      std::size_t max_delta = 0;
      for (std::size_t p = 0; p < layout.size(); ++p) {
        const std::size_t d = new_layout[p] > layout[p]
                                  ? new_layout[p] - layout[p]
                                  : layout[p] - new_layout[p];
        max_delta = std::max(max_delta, d);
      }
      const std::size_t migrate_threshold =
          std::max<std::size_t>(1, n / layout.size() / 10);
      if (max_delta > migrate_threshold) {
        // 3. Migrate: gather the full interior to rank 0, scatter the new
        //    strips. Transfer costs are paid through the fabric.
        mpi::Payload full = co_await ctx.gather(grid.interior());
        layout = std::move(new_layout);
        mpi::Payload mine;
        if (ctx.rank() == 0) {
          std::size_t offset = layout[0] * n;
          for (int p = 1; p < ctx.size(); ++p) {
            const std::size_t count = layout[static_cast<std::size_t>(p)] * n;
            ctx.send(p, kMigrateTagBase + round,
                     mpi::Payload(full.begin() + static_cast<long>(offset),
                                  full.begin() +
                                      static_cast<long>(offset + count)));
            offset += count;
          }
          mine.assign(full.begin(),
                      full.begin() + static_cast<long>(layout[0] * n));
        } else {
          mpi::Message m = co_await ctx.recv(0, kMigrateTagBase + round);
          mine = std::move(m.data);
        }
        grid = LocalGrid::strip(n, my_begin(), layout[rank]);
        grid.set_interior(mine);
        phase_work = phase_work_now();

        // 4. Ghost refresh so the next red sweep sees current neighbours.
        post_halo(ctx, kRefreshTagBase + round, grid, neighbours);
        co_await await_halo(ctx, kRefreshTagBase + round, grid, neighbours);
      }
      if (ctx.rank() == 0) {
        shared->result.rebalances.push_back(
            RebalanceEvent{rb_start, ctx.now() - rb_start, layout});
      }
    }
  }

  // Global diagnostics (cheap relative to the run; not charged to time).
  const double res_sq = co_await ctx.allreduce_sum(grid.residual_sq());
  const double err = co_await ctx.allreduce_max(grid.max_error());

  if (cfg.gather_solution) {
    mpi::Payload all = co_await ctx.gather(grid.interior());
    if (ctx.rank() == 0) shared->result.solution = std::move(all);
  }

  co_await ctx.barrier();
  if (ctx.rank() == 0) {
    shared->result.residual = std::sqrt(res_sq) * grid.h();
    shared->result.solution_error = err;
    shared->result.total_time = ctx.now() - shared->result.start_time;
  }
}

}  // namespace

support::Seconds SorResult::iteration_time(std::size_t it) const {
  SSPRED_REQUIRE(!ranks.empty(), "no rank stats");
  support::Seconds red_comp = 0.0;
  support::Seconds red_comm = 0.0;
  support::Seconds black_comp = 0.0;
  support::Seconds black_comm = 0.0;
  for (const auto& r : ranks) {
    SSPRED_REQUIRE(it < r.iterations.size(), "iteration out of range");
    red_comp = std::max(red_comp, r.iterations[it].red_comp);
    red_comm = std::max(red_comm, r.iterations[it].red_comm);
    black_comp = std::max(black_comp, r.iterations[it].black_comp);
    black_comm = std::max(black_comm, r.iterations[it].black_comm);
  }
  return red_comp + red_comm + black_comp + black_comm;
}

StripDecomposition make_decomposition(const cluster::Platform& platform,
                                      const SorConfig& config) {
  if (!config.rows_per_rank.empty()) {
    return StripDecomposition(config.n, config.rows_per_rank);
  }
  return StripDecomposition::uniform(config.n, platform.size());
}

SorResult run_distributed_sor(sim::Engine& engine,
                              cluster::Platform& platform,
                              const SorConfig& config,
                              support::Seconds start_time) {
  SSPRED_REQUIRE(config.iterations >= 1, "need at least one iteration");
  RunShared shared{config, make_decomposition(platform, config), SorResult{}};
  shared.result.start_time = start_time;
  shared.result.ranks.resize(platform.size());
  run_ranks(engine, platform, start_time, [&shared](mpi::RankCtx ctx) {
    return sor_rank(ctx, &shared);
  });
  return std::move(shared.result);
}

}  // namespace sspred::sor
