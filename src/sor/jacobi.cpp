#include "sor/jacobi.hpp"

#include <cmath>
#include <numbers>

#include "sor/decomposition.hpp"
#include "sor/stencil.hpp"
#include "support/error.hpp"

namespace sspred::sor {

namespace {
constexpr double pi = std::numbers::pi;
}  // namespace

SerialJacobi::SerialJacobi(std::size_t n)
    : n_(n),
      stride_(n + 2),
      h_(1.0 / (static_cast<double>(n) + 1.0)),
      u_(stride_ * stride_, 0.0),
      next_(stride_ * stride_, 0.0),
      f_(stride_ * stride_, 0.0) {
  SSPRED_REQUIRE(n >= 2, "Jacobi grid needs n >= 2");
  for (std::size_t i = 1; i <= n_; ++i) {
    const double y = static_cast<double>(i) * h_;
    for (std::size_t j = 1; j <= n_; ++j) {
      const double x = static_cast<double>(j) * h_;
      f_[i * stride_ + j] =
          2.0 * pi * pi * std::sin(pi * x) * std::sin(pi * y);
    }
  }
}

void SerialJacobi::iterate(std::size_t iterations) {
  const double h2 = h_ * h_;
  for (std::size_t k = 0; k < iterations; ++k) {
    for (std::size_t i = 1; i <= n_; ++i) {
      for (std::size_t j = 1; j <= n_; ++j) {
        next_[i * stride_ + j] =
            0.25 * (u_[(i - 1) * stride_ + j] + u_[(i + 1) * stride_ + j] +
                    u_[i * stride_ + j - 1] + u_[i * stride_ + j + 1] +
                    h2 * f_[i * stride_ + j]);
      }
    }
    u_.swap(next_);
  }
}

double SerialJacobi::residual_norm() const {
  const double h2 = h_ * h_;
  double sum = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    for (std::size_t j = 1; j <= n_; ++j) {
      const double lap =
          (u_[(i - 1) * stride_ + j] + u_[(i + 1) * stride_ + j] +
           u_[i * stride_ + j - 1] + u_[i * stride_ + j + 1] -
           4.0 * u_[i * stride_ + j]) /
          h2;
      const double r = f_[i * stride_ + j] + lap;
      sum += r * r;
    }
  }
  return std::sqrt(sum * h2);
}

double SerialJacobi::solution_error() const {
  double worst = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    const double y = static_cast<double>(i) * h_;
    for (std::size_t j = 1; j <= n_; ++j) {
      const double x = static_cast<double>(j) * h_;
      worst = std::max(worst, std::abs(u_[i * stride_ + j] -
                                       std::sin(pi * x) * std::sin(pi * y)));
    }
  }
  return worst;
}

double SerialJacobi::at(std::size_t row, std::size_t col) const {
  SSPRED_REQUIRE(row < n_ && col < n_, "interior index out of range");
  return u_[(row + 1) * stride_ + col + 1];
}

namespace {

struct JacobiShared {
  JacobiConfig config;
  StripDecomposition decomp;
  JacobiResult result;
};

sim::Task<> jacobi_rank(mpi::RankCtx ctx, JacobiShared* shared) {
  const auto rank = static_cast<std::size_t>(ctx.rank());
  const JacobiConfig& cfg = shared->config;
  const auto neighbours = strip_neighbours(ctx);

  LocalGrid grid = LocalGrid::strip(cfg.n, shared->decomp.begin(rank),
                                    shared->decomp.rows(rank));
  auto& timings = shared->result.rank_timings[rank];
  timings.reserve(cfg.iterations);

  const support::Seconds iter_work =
      ctx.machine().element_work(grid.elements(), grid.working_set());

  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    const int tag = static_cast<int>(it);
    // One ghost exchange per iteration, before the sweep.
    const support::Seconds t0 = ctx.now();
    post_halo(ctx, tag, grid, neighbours);
    co_await await_halo(ctx, tag, grid, neighbours);
    const support::Seconds t1 = ctx.now();

    if (cfg.real_numerics) grid.jacobi_sweep();
    co_await ctx.compute(iter_work);
    timings.emplace_back(ctx.now() - t1, t1 - t0);
  }

  const double global_err = co_await ctx.allreduce_max(grid.max_error());

  if (cfg.gather_solution) {
    mpi::Payload all = co_await ctx.gather(grid.interior());
    if (ctx.rank() == 0) shared->result.solution = std::move(all);
  }

  co_await ctx.barrier();
  if (ctx.rank() == 0) {
    shared->result.solution_error = global_err;
    shared->result.total_time = ctx.now() - shared->result.start_time;
  }
}

}  // namespace

JacobiResult run_distributed_jacobi(sim::Engine& engine,
                                    cluster::Platform& platform,
                                    const JacobiConfig& config,
                                    support::Seconds start_time) {
  SSPRED_REQUIRE(config.iterations >= 1, "need at least one iteration");
  JacobiShared shared{config,
                      StripDecomposition::uniform(config.n, platform.size()),
                      JacobiResult{}};
  shared.result.start_time = start_time;
  shared.result.rank_timings.resize(platform.size());
  run_ranks(engine, platform, start_time, [&shared](mpi::RankCtx ctx) {
    return jacobi_rank(ctx, &shared);
  });
  return std::move(shared.result);
}

}  // namespace sspred::sor
