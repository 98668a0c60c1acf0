// Distributed (and serial reference) Jacobi iteration — a second stencil
// application on the same substrate, demonstrating that the structural-
// modeling approach is not SOR-specific. Jacobi does one full sweep and
// ONE ghost exchange per iteration (vs SOR's two of each), so its
// structural model has a different compute/communicate mix.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/platform.hpp"
#include "sim/engine.hpp"
#include "support/units.hpp"

namespace sspred::sor {

/// Serial Jacobi on the same Poisson problem as SerialSor.
class SerialJacobi {
 public:
  explicit SerialJacobi(std::size_t n);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  void iterate(std::size_t iterations = 1);
  [[nodiscard]] double residual_norm() const;
  [[nodiscard]] double solution_error() const;
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

 private:
  std::size_t n_;
  std::size_t stride_;
  double h_;
  std::vector<double> u_;
  std::vector<double> next_;
  std::vector<double> f_;
};

struct JacobiConfig {
  std::size_t n = 512;
  std::size_t iterations = 50;
  bool real_numerics = true;
  bool gather_solution = false;
};

struct JacobiResult {
  support::Seconds start_time = 0.0;
  support::Seconds total_time = 0.0;
  /// Per-rank per-iteration (compute, communicate) durations.
  std::vector<std::vector<std::pair<support::Seconds, support::Seconds>>>
      rank_timings;
  double solution_error = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> solution;  ///< n x n interior when gathered
};

/// Runs the distributed Jacobi on uniform strips of `platform` starting at
/// `start_time`.
[[nodiscard]] JacobiResult run_distributed_jacobi(
    sim::Engine& engine, cluster::Platform& platform,
    const JacobiConfig& config, support::Seconds start_time = 0.0);

}  // namespace sspred::sor
