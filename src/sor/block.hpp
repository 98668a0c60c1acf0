// 2-D block-decomposed Red-Black SOR.
//
// The paper uses a strip decomposition (Fig. 6); the classic alternative
// splits the grid into a pr x pc block grid, trading more messages for
// less boundary volume (strips move O(n·P) bytes per phase, blocks
// O(n·(pr+pc))). Same real numerics, same virtual-time accounting — and a
// matching structural model in predict/ so the trade-off is predictable.
#pragma once

#include <cstddef>

#include "cluster/platform.hpp"
#include "sim/engine.hpp"
#include "sor/distributed.hpp"

namespace sspred::sor {

struct BlockConfig {
  std::size_t n = 512;
  std::size_t iterations = 30;
  std::size_t pr = 2;  ///< block-grid rows; pr*pc must equal platform size
  std::size_t pc = 2;  ///< block-grid columns
  bool real_numerics = true;
  bool gather_solution = false;
};

/// Runs the block-decomposed SOR; returns the same result shape as the
/// strip solver (rebalances unused).
[[nodiscard]] SorResult run_distributed_block_sor(
    sim::Engine& engine, cluster::Platform& platform,
    const BlockConfig& config, support::Seconds start_time = 0.0);

/// Near-equal 1-D split of `n` into `parts`: size of part `index`.
[[nodiscard]] std::size_t block_extent(std::size_t n, std::size_t parts,
                                       std::size_t index);
/// Offset of part `index` under the same split.
[[nodiscard]] std::size_t block_offset(std::size_t n, std::size_t parts,
                                       std::size_t index);

}  // namespace sspred::sor
