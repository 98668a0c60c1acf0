// The substrate the simulated stencil applications share: one rank's
// block of the n x n Poisson interior (-∆u = f on the unit square, zero
// Dirichlet boundary, exact solution sin(πx)·sin(πy)), the ghost exchange
// between neighbouring ranks, and the run loop that launches one rank per
// host.
//
// Strip and block Red-Black SOR and Jacobi are built on all three. CG
// shares only the run loop: its operator is unscaled (b = h²·f), so it
// keeps its own vectors and exchange. The serial references (SerialSor,
// SerialJacobi, SerialCg) stay apart, because the distributed runs are
// checked bit for bit against them.
//
// Bytes on the fabric are virtual time, so each application's payload
// sizes and its order of sends and receives are part of its results.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "cluster/platform.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"

namespace sspred::sor {

/// The edge of a rank's block that a neighbour shares.
enum class Side { kUp, kDown, kLeft, kRight };

/// Interior rows [row0, row0 + rows) x columns [col0, col0 + cols) of the
/// n x n grid, stored with a one-cell ghost frame. Local storage row i and
/// column j hold global interior cell (row0 + i - 1, col0 + j - 1).
class LocalGrid {
 public:
  /// A strip: full-width rows. Its row edges are whole storage rows, frame
  /// cells included (n + 2 values).
  [[nodiscard]] static LocalGrid strip(std::size_t n, std::size_t row0,
                                       std::size_t rows);
  /// A block: its row and column edges carry only owned cells.
  [[nodiscard]] static LocalGrid block(std::size_t n, std::size_t row0,
                                       std::size_t rows, std::size_t col0,
                                       std::size_t cols);

  /// Red (global storage i + j even) or black half-sweep over local rows
  /// [begin, end), at the optimal SOR factor for the grid.
  void sor_sweep(bool red, std::size_t begin, std::size_t end);
  void sor_sweep(bool red) { sor_sweep(red, 0, rows_); }
  /// One Jacobi sweep of the owned cells, in place through a two-row
  /// scratch that holds the old values of the rows above and at the one
  /// being updated.
  void jacobi_sweep();

  /// Squared residual f + ∆u summed over the owned cells (ghosts must be
  /// current).
  [[nodiscard]] double residual_sq() const;
  /// Max error against sin(πx)·sin(πy) over the owned cells.
  [[nodiscard]] double max_error() const;

  /// Owned cells.
  [[nodiscard]] double elements() const noexcept {
    return static_cast<double>(rows_) * static_cast<double>(cols_);
  }
  /// Resident doubles (solution and source with the ghost frame): the
  /// working set the memory-thrashing multiplier sees.
  [[nodiscard]] double working_set() const noexcept {
    return 2.0 * static_cast<double>(rows_ + 2) *
           static_cast<double>(cols_ + 2);
  }

  /// Owned cells, row-major, without the frame.
  [[nodiscard]] mpi::Payload interior() const;
  /// Overwrites the owned cells from a row-major rows x cols payload.
  void set_interior(std::span<const double> values);

  /// The cells along `side` that the neighbour there needs.
  [[nodiscard]] mpi::Payload edge(Side side) const;
  /// Writes the neighbour's edge into the ghost frame on `side`.
  void set_ghost(Side side, const mpi::Payload& values);

  [[nodiscard]] double h() const noexcept { return h_; }

 private:
  LocalGrid(std::size_t n, std::size_t row0, std::size_t rows,
            std::size_t col0, std::size_t cols, bool framed_rows);

  std::size_t row0_;
  std::size_t rows_;
  std::size_t col0_;
  std::size_t cols_;
  std::size_t stride_;
  std::size_t row_edge_begin_;  ///< first storage column a row edge carries
  std::size_t row_edge_size_;
  double h_;
  double omega_;
  std::vector<double> u_;
  std::vector<double> f_;
  std::vector<double> scratch_;  ///< Jacobi's two old rows
};

/// A neighbouring rank and the side of this rank's block it shares; rank
/// -1 marks the physical boundary (no neighbour there).
struct Neighbour {
  int rank = -1;
  Side side = Side::kUp;
};

/// A strip rank's neighbours: the rank above it, then the rank below.
[[nodiscard]] inline std::array<Neighbour, 2> strip_neighbours(
    const mpi::RankCtx& ctx) {
  return {{{ctx.rank() > 0 ? ctx.rank() - 1 : -1, Side::kUp},
           {ctx.rank() + 1 < ctx.size() ? ctx.rank() + 1 : -1, Side::kDown}}};
}

/// First half of a ghost exchange: sends the grid's edge to each present
/// neighbour, in order. A rank may compute before awaiting the second half.
void post_halo(mpi::RankCtx ctx, int tag, const LocalGrid& grid,
               std::span<const Neighbour> neighbours);

/// Second half: receives each present neighbour's edge into the ghost
/// frame, in the same order.
[[nodiscard]] sim::Task<> await_halo(mpi::RankCtx ctx, int tag,
                                     LocalGrid& grid,
                                     std::span<const Neighbour> neighbours);

/// Advances the engine to `start_time`, runs `rank_main` once per platform
/// host and steps the engine until every rank has returned; throws if the
/// queue empties first (a deadlock). The queue is not drained, so
/// background processes (NWS sensors, bandwidth probes) outlive the run.
void run_ranks(sim::Engine& engine, cluster::Platform& platform,
               support::Seconds start_time,
               std::function<sim::Task<>(mpi::RankCtx)> rank_main);

}  // namespace sspred::sor
