#include "sor/block.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sor/stencil.hpp"
#include "support/error.hpp"

namespace sspred::sor {

std::size_t block_extent(std::size_t n, std::size_t parts, std::size_t index) {
  SSPRED_REQUIRE(index < parts, "block index out of range");
  return n / parts + (index < n % parts ? 1 : 0);
}

std::size_t block_offset(std::size_t n, std::size_t parts, std::size_t index) {
  SSPRED_REQUIRE(index < parts, "block index out of range");
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  return index * base + std::min(index, rem);
}

namespace {

struct BlockShared {
  BlockConfig config;
  SorResult result;
};

sim::Task<> block_rank(mpi::RankCtx ctx, BlockShared* shared) {
  const BlockConfig& cfg = shared->config;
  const std::size_t n = cfg.n;
  const auto rank = static_cast<std::size_t>(ctx.rank());
  const std::size_t br = rank / cfg.pc;
  const std::size_t bc = rank % cfg.pc;
  const std::array<Neighbour, 4> neighbours{
      {{br > 0 ? static_cast<int>(rank - cfg.pc) : -1, Side::kUp},
       {br + 1 < cfg.pr ? static_cast<int>(rank + cfg.pc) : -1, Side::kDown},
       {bc > 0 ? static_cast<int>(rank - 1) : -1, Side::kLeft},
       {bc + 1 < cfg.pc ? static_cast<int>(rank + 1) : -1, Side::kRight}}};

  LocalGrid grid = LocalGrid::block(
      n, block_offset(n, cfg.pr, br), block_extent(n, cfg.pr, br),
      block_offset(n, cfg.pc, bc), block_extent(n, cfg.pc, bc));

  RankStats& stats = shared->result.ranks[rank];
  const support::Seconds phase_work =
      ctx.machine().element_work(grid.elements() / 2.0, grid.working_set());

  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    PhaseTiming timing;
    for (int phase = 0; phase < 2; ++phase) {
      const bool red = phase == 0;
      const int tag = 2 * static_cast<int>(it) + phase;

      const support::Seconds t0 = ctx.now();
      if (cfg.real_numerics) grid.sor_sweep(red);
      co_await ctx.compute(phase_work);
      const support::Seconds t1 = ctx.now();

      post_halo(ctx, tag, grid, neighbours);
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
  }

  const double res_sq = co_await ctx.allreduce_sum(grid.residual_sq());

  if (cfg.gather_solution) {
    // Gather per-rank interiors; rank 0 reassembles by block coordinates.
    mpi::Payload all = co_await ctx.gather(grid.interior());
    if (ctx.rank() == 0) {
      std::vector<double> assembled(n * n, 0.0);
      std::size_t offset = 0;
      for (std::size_t p = 0; p < static_cast<std::size_t>(ctx.size()); ++p) {
        const std::size_t pbr = p / cfg.pc;
        const std::size_t pbc = p % cfg.pc;
        const std::size_t r0 = block_offset(n, cfg.pr, pbr);
        const std::size_t rs = block_extent(n, cfg.pr, pbr);
        const std::size_t c0 = block_offset(n, cfg.pc, pbc);
        const std::size_t cs = block_extent(n, cfg.pc, pbc);
        for (std::size_t r = 0; r < rs; ++r) {
          for (std::size_t c = 0; c < cs; ++c) {
            assembled[(r0 + r) * n + c0 + c] = all[offset++];
          }
        }
      }
      shared->result.solution = std::move(assembled);
    }
  }

  co_await ctx.barrier();
  if (ctx.rank() == 0) {
    shared->result.residual = std::sqrt(res_sq) * grid.h();
    shared->result.total_time = ctx.now() - shared->result.start_time;
  }
}

}  // namespace

SorResult run_distributed_block_sor(sim::Engine& engine,
                                    cluster::Platform& platform,
                                    const BlockConfig& config,
                                    support::Seconds start_time) {
  SSPRED_REQUIRE(config.pr * config.pc == platform.size(),
                 "pr*pc must equal the platform size");
  SSPRED_REQUIRE(config.pr >= 1 && config.pc >= 1, "block grid must be >= 1x1");
  SSPRED_REQUIRE(config.n >= config.pr && config.n >= config.pc,
                 "grid too small for the block grid");
  BlockShared shared{config, SorResult{}};
  shared.result.start_time = start_time;
  shared.result.ranks.resize(platform.size());
  run_ranks(engine, platform, start_time, [&shared](mpi::RankCtx ctx) {
    return block_rank(ctx, &shared);
  });
  return std::move(shared.result);
}

}  // namespace sspred::sor
