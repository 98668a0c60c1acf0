// Serial Red-Black SOR reference solver.
//
// Solves the Poisson problem -∆u = f on the unit square with zero Dirichlet
// boundary, f chosen so the exact solution is sin(pi x) sin(pi y). The
// distributed solver must produce bit-identical interiors after the same
// number of iterations — red/black sweeps touch disjoint colors, so the
// update order within a sweep does not affect the result.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sspred::sor {

class SerialSor {
 public:
  /// Interior n x n unknowns (storage is (n+2)^2 with the boundary).
  /// omega <= 0 selects the optimal SOR factor 2 / (1 + sin(pi/(n+1))).
  explicit SerialSor(std::size_t n, double omega = 0.0);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] double omega() const noexcept { return omega_; }

  /// One red (i+j even) or black (i+j odd) half-sweep over rows
  /// [row_begin, row_end) of the interior (0-based interior rows).
  void sweep(bool red, std::size_t row_begin, std::size_t row_end);
  /// Full-interior half-sweep.
  void sweep(bool red) { sweep(red, 0, n_); }
  /// One full iteration = red sweep + black sweep.
  void iterate(std::size_t iterations = 1);

  /// L2 norm of the residual f + ∆u over the interior.
  [[nodiscard]] double residual_norm() const;
  /// Max-norm error against the analytic solution.
  [[nodiscard]] double solution_error() const;

  /// Value at interior cell (row, col), 0-based.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;
  /// Raw (n+2)x(n+2) row-major storage, boundary included.
  [[nodiscard]] std::span<const double> data() const noexcept { return u_; }
  /// Mutable row pointer into raw storage (row in [0, n+2)).
  [[nodiscard]] double* raw_row(std::size_t storage_row);
  [[nodiscard]] const double* raw_row(std::size_t storage_row) const;

  /// Source term at interior cell (row, col).
  [[nodiscard]] double source(std::size_t row, std::size_t col) const;

  /// Optimal omega for this grid size.
  [[nodiscard]] static double optimal_omega(std::size_t n);

 private:
  std::size_t n_;
  std::size_t stride_;
  double h_;
  double omega_;
  std::vector<double> u_;
  std::vector<double> f_;
};

}  // namespace sspred::sor
