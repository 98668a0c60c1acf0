#include "sor/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "sor/serial.hpp"
#include "support/error.hpp"

namespace sspred::sor {

namespace {
constexpr double pi = std::numbers::pi;
}  // namespace

LocalGrid::LocalGrid(std::size_t n, std::size_t row0, std::size_t rows,
                     std::size_t col0, std::size_t cols, bool framed_rows)
    : row0_(row0),
      rows_(rows),
      col0_(col0),
      cols_(cols),
      stride_(cols + 2),
      row_edge_begin_(framed_rows ? 0 : 1),
      row_edge_size_(framed_rows ? cols + 2 : cols),
      h_(1.0 / (static_cast<double>(n) + 1.0)),
      omega_(SerialSor::optimal_omega(n)),
      u_((rows + 2) * stride_, 0.0),
      f_((rows + 2) * stride_, 0.0) {
  for (std::size_t i = 1; i <= rows_; ++i) {
    const double y = static_cast<double>(row0_ + i) * h_;
    for (std::size_t j = 1; j <= cols_; ++j) {
      const double x = static_cast<double>(col0_ + j) * h_;
      f_[i * stride_ + j] =
          2.0 * pi * pi * std::sin(pi * x) * std::sin(pi * y);
    }
  }
}

LocalGrid LocalGrid::strip(std::size_t n, std::size_t row0,
                           std::size_t rows) {
  return LocalGrid(n, row0, rows, 0, n, /*framed_rows=*/true);
}

LocalGrid LocalGrid::block(std::size_t n, std::size_t row0, std::size_t rows,
                           std::size_t col0, std::size_t cols) {
  return LocalGrid(n, row0, rows, col0, cols, /*framed_rows=*/false);
}

void LocalGrid::sor_sweep(bool red, std::size_t begin, std::size_t end) {
  const double h2 = h_ * h_;
  const std::size_t parity = red ? 0 : 1;
  for (std::size_t i = begin + 1; i <= end; ++i) {
    // Local column j is global storage column col0_ + j; start at the first
    // whose global (row + column) parity matches the colour.
    std::size_t j = 2 - ((row0_ + i + col0_ + parity) % 2);
    double* row = &u_[i * stride_];
    const double* above = row - stride_;
    const double* below = row + stride_;
    const double* frow = &f_[i * stride_];
    for (; j <= cols_; j += 2) {
      const double gs = 0.25 * (above[j] + below[j] + row[j - 1] +
                                row[j + 1] + h2 * frow[j]);
      row[j] += omega_ * (gs - row[j]);
    }
  }
}

void LocalGrid::jacobi_sweep() {
  const double h2 = h_ * h_;
  scratch_.resize(2 * stride_);
  double* above = scratch_.data();
  double* old = scratch_.data() + stride_;
  std::copy_n(u_.begin(), stride_, above);
  for (std::size_t i = 1; i <= rows_; ++i) {
    double* row = &u_[i * stride_];
    const double* below = row + stride_;
    const double* frow = &f_[i * stride_];
    std::copy_n(row, stride_, old);
    for (std::size_t j = 1; j <= cols_; ++j) {
      row[j] = 0.25 * (above[j] + below[j] + old[j - 1] + old[j + 1] +
                       h2 * frow[j]);
    }
    std::swap(above, old);
  }
}

double LocalGrid::residual_sq() const {
  const double h2 = h_ * h_;
  double sum = 0.0;
  for (std::size_t i = 1; i <= rows_; ++i) {
    for (std::size_t j = 1; j <= cols_; ++j) {
      const double lap =
          (u_[(i - 1) * stride_ + j] + u_[(i + 1) * stride_ + j] +
           u_[i * stride_ + j - 1] + u_[i * stride_ + j + 1] -
           4.0 * u_[i * stride_ + j]) /
          h2;
      const double res = f_[i * stride_ + j] + lap;
      sum += res * res;
    }
  }
  return sum;
}

double LocalGrid::max_error() const {
  double worst = 0.0;
  for (std::size_t i = 1; i <= rows_; ++i) {
    const double y = static_cast<double>(row0_ + i) * h_;
    for (std::size_t j = 1; j <= cols_; ++j) {
      const double x = static_cast<double>(col0_ + j) * h_;
      const double exact = std::sin(pi * x) * std::sin(pi * y);
      worst = std::max(worst, std::abs(u_[i * stride_ + j] - exact));
    }
  }
  return worst;
}

mpi::Payload LocalGrid::interior() const {
  mpi::Payload out;
  out.reserve(rows_ * cols_);
  for (std::size_t i = 1; i <= rows_; ++i) {
    const double* row = &u_[i * stride_];
    out.insert(out.end(), row + 1, row + 1 + cols_);
  }
  return out;
}

void LocalGrid::set_interior(std::span<const double> values) {
  SSPRED_REQUIRE(values.size() == rows_ * cols_, "interior size mismatch");
  for (std::size_t i = 1; i <= rows_; ++i) {
    std::copy_n(values.begin() + static_cast<long>((i - 1) * cols_), cols_,
                &u_[i * stride_ + 1]);
  }
}

mpi::Payload LocalGrid::edge(Side side) const {
  if (side == Side::kUp || side == Side::kDown) {
    const std::size_t i = side == Side::kUp ? 1 : rows_;
    const double* first = &u_[i * stride_ + row_edge_begin_];
    return {first, first + row_edge_size_};
  }
  const std::size_t j = side == Side::kLeft ? 1 : cols_;
  mpi::Payload out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = u_[(r + 1) * stride_ + j];
  return out;
}

void LocalGrid::set_ghost(Side side, const mpi::Payload& values) {
  if (side == Side::kUp || side == Side::kDown) {
    SSPRED_REQUIRE(values.size() == row_edge_size_, "ghost row size mismatch");
    const std::size_t i = side == Side::kUp ? 0 : rows_ + 1;
    std::copy(values.begin(), values.end(),
              &u_[i * stride_ + row_edge_begin_]);
    return;
  }
  SSPRED_REQUIRE(values.size() == rows_, "ghost column size mismatch");
  const std::size_t j = side == Side::kLeft ? 0 : cols_ + 1;
  for (std::size_t r = 0; r < rows_; ++r) u_[(r + 1) * stride_ + j] = values[r];
}

void post_halo(mpi::RankCtx ctx, int tag, const LocalGrid& grid,
               std::span<const Neighbour> neighbours) {
  for (const Neighbour& nb : neighbours) {
    if (nb.rank >= 0) ctx.send(nb.rank, tag, grid.edge(nb.side));
  }
}

sim::Task<> await_halo(mpi::RankCtx ctx, int tag, LocalGrid& grid,
                       std::span<const Neighbour> neighbours) {
  for (const Neighbour& nb : neighbours) {
    if (nb.rank < 0) continue;
    mpi::Message m = co_await ctx.recv(nb.rank, tag);
    grid.set_ghost(nb.side, m.data);
  }
}

namespace {

/// A rank's process: its body, then one more finished rank.
sim::Process counted(sim::Task<> body, int* finished) {
  co_await body;
  ++*finished;
}

}  // namespace

void run_ranks(sim::Engine& engine, cluster::Platform& platform,
               support::Seconds start_time,
               std::function<sim::Task<>(mpi::RankCtx)> rank_main) {
  engine.run_until(start_time);
  mpi::Comm comm(engine, platform);
  int finished = 0;
  comm.launch([&finished, main = std::move(rank_main)](mpi::RankCtx ctx) {
    return counted(main(ctx), &finished);
  });
  while (finished < comm.size() && engine.step_one()) {
  }
  SSPRED_REQUIRE(finished == comm.size(),
                 "not all ranks finished — deadlock in the run");
}

}  // namespace sspred::sor
