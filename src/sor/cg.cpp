#include "sor/cg.hpp"

#include <cmath>
#include <numbers>

#include "sor/decomposition.hpp"
#include "sor/stencil.hpp"
#include "support/error.hpp"

namespace sspred::sor {

namespace {
constexpr double pi = std::numbers::pi;

/// A CG iteration touches each element several times (SpMV + three AXPYs
/// + two dots) — roughly twice the work of one stencil half-sweep pair.
constexpr double kCgWorkFactor = 2.0;
}  // namespace

SerialCg::SerialCg(std::size_t n)
    : n_(n),
      h_(1.0 / (static_cast<double>(n) + 1.0)),
      x_(n * n, 0.0),
      b_(n * n, 0.0) {
  SSPRED_REQUIRE(n >= 2, "CG grid needs n >= 2");
  for (std::size_t i = 0; i < n_; ++i) {
    const double y = static_cast<double>(i + 1) * h_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double x = static_cast<double>(j + 1) * h_;
      b_[i * n_ + j] =
          h_ * h_ * 2.0 * pi * pi * std::sin(pi * x) * std::sin(pi * y);
    }
  }
}

namespace {
/// q = A p for the unscaled 5-point operator (zero Dirichlet boundary).
void apply_poisson(std::size_t n, const std::vector<double>& p,
                   std::vector<double>& q) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double v = 4.0 * p[i * n + j];
      if (i > 0) v -= p[(i - 1) * n + j];
      if (i + 1 < n) v -= p[(i + 1) * n + j];
      if (j > 0) v -= p[i * n + j - 1];
      if (j + 1 < n) v -= p[i * n + j + 1];
      q[i * n + j] = v;
    }
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
}  // namespace

std::size_t SerialCg::solve(std::size_t max_iterations, double tol) {
  std::vector<double> r = b_;
  std::vector<double> p = r;
  std::vector<double> q(r.size());
  double rs = dot(r, r);
  residual_ = std::sqrt(rs);
  std::size_t it = 0;
  for (; it < max_iterations; ++it) {
    apply_poisson(n_, p, q);
    const double alpha = rs / dot(p, q);
    for (std::size_t k = 0; k < x_.size(); ++k) {
      x_[k] += alpha * p[k];
      r[k] -= alpha * q[k];
    }
    const double rs_new = dot(r, r);
    residual_ = std::sqrt(rs_new);
    if (tol > 0.0 && residual_ < tol) {
      ++it;
      break;
    }
    const double beta = rs_new / rs;
    for (std::size_t k = 0; k < p.size(); ++k) p[k] = r[k] + beta * p[k];
    rs = rs_new;
  }
  return it;
}

double SerialCg::solution_error() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double y = static_cast<double>(i + 1) * h_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double x = static_cast<double>(j + 1) * h_;
      worst = std::max(worst, std::abs(x_[i * n_ + j] -
                                       std::sin(pi * x) * std::sin(pi * y)));
    }
  }
  return worst;
}

double SerialCg::at(std::size_t row, std::size_t col) const {
  SSPRED_REQUIRE(row < n_ && col < n_, "index out of range");
  return x_[row * n_ + col];
}

namespace {

struct CgShared {
  CgConfig config;
  StripDecomposition decomp;
  CgResult result;
};

sim::Task<> cg_rank(mpi::RankCtx ctx, CgShared* shared) {
  const CgConfig& cfg = shared->config;
  const auto rank = static_cast<std::size_t>(ctx.rank());
  const std::size_t n = cfg.n;
  const std::size_t rows = shared->decomp.rows(rank);
  const std::size_t row0 = shared->decomp.begin(rank);
  const double h = 1.0 / (static_cast<double>(n) + 1.0);
  const int up = ctx.rank() > 0 ? ctx.rank() - 1 : -1;
  const int down = ctx.rank() + 1 < ctx.size() ? ctx.rank() + 1 : -1;

  // Local rows of x, r, b (rows x n) and p with ghost rows ((rows+2) x n).
  std::vector<double> x(rows * n, 0.0);
  std::vector<double> b(rows * n, 0.0);
  std::vector<double> p((rows + 2) * n, 0.0);
  std::vector<double> r(rows * n, 0.0);
  std::vector<double> q(rows * n, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double y = static_cast<double>(row0 + i + 1) * h;
    for (std::size_t j = 0; j < n; ++j) {
      const double xx = static_cast<double>(j + 1) * h;
      b[i * n + j] =
          h * h * 2.0 * pi * pi * std::sin(pi * xx) * std::sin(pi * y);
    }
  }
  r = b;
  std::copy(r.begin(), r.end(), p.begin() + static_cast<long>(n));

  auto& totals = shared->result.rank_totals[rank];
  const support::Seconds iter_work =
      ctx.machine().element_work(static_cast<double>(rows * n)) *
      kCgWorkFactor;

  double rs = co_await ctx.allreduce_sum(
      dot(r, r));  // startup reduction, not timed per-phase
  double residual = std::sqrt(rs);
  std::size_t it = 0;
  for (; it < cfg.max_iterations; ++it) {
    // 1. Ghost exchange of p's boundary rows.
    support::Seconds t0 = ctx.now();
    const int tag = static_cast<int>(it);
    if (up >= 0) {
      ctx.send(up, tag, mpi::Payload(p.begin() + static_cast<long>(n),
                                     p.begin() + static_cast<long>(2 * n)));
    }
    if (down >= 0) {
      ctx.send(down, tag,
               mpi::Payload(p.begin() + static_cast<long>(rows * n),
                            p.begin() + static_cast<long>((rows + 1) * n)));
    }
    if (up >= 0) {
      mpi::Message m = co_await ctx.recv(up, tag);
      std::copy(m.data.begin(), m.data.end(), p.begin());
    }
    if (down >= 0) {
      mpi::Message m = co_await ctx.recv(down, tag);
      std::copy(m.data.begin(), m.data.end(),
                p.begin() + static_cast<long>((rows + 1) * n));
    }
    totals[1] += ctx.now() - t0;

    // 2. Local SpMV + dots + updates (one compute charge per iteration).
    t0 = ctx.now();
    double local_pq = 0.0;
    if (cfg.real_numerics) {
      for (std::size_t i = 0; i < rows; ++i) {
        const double* prow = &p[(i + 1) * n];
        const double* pup = prow - n;
        const double* pdn = prow + n;
        for (std::size_t j = 0; j < n; ++j) {
          double v = 4.0 * prow[j] - pup[j] - pdn[j];
          if (j > 0) v -= prow[j - 1];
          if (j + 1 < n) v -= prow[j + 1];
          q[i * n + j] = v;
          local_pq += prow[j] * v;
        }
      }
    }
    co_await ctx.compute(iter_work);
    totals[0] += ctx.now() - t0;

    // 3. First allreduce: <p, q>.
    t0 = ctx.now();
    const double pq = co_await ctx.allreduce_sum(local_pq);
    totals[2] += ctx.now() - t0;

    const double alpha = cfg.real_numerics ? rs / pq : 0.0;
    double local_rr = 0.0;
    if (cfg.real_numerics) {
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] += alpha * p[k + n];
        r[k] -= alpha * q[k];
        local_rr += r[k] * r[k];
      }
    }

    // 4. Second allreduce: <r, r>.
    t0 = ctx.now();
    const double rs_new = co_await ctx.allreduce_sum(local_rr);
    totals[2] += ctx.now() - t0;

    residual = std::sqrt(rs_new);
    if (cfg.real_numerics && cfg.tolerance > 0.0 &&
        residual < cfg.tolerance) {
      ++it;
      break;
    }
    if (cfg.real_numerics) {
      const double beta = rs_new / rs;
      for (std::size_t k = 0; k < x.size(); ++k) {
        p[k + n] = r[k] + beta * p[k + n];
      }
      rs = rs_new;
    }
  }

  double err = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double y = static_cast<double>(row0 + i + 1) * h;
    for (std::size_t j = 0; j < n; ++j) {
      const double xx = static_cast<double>(j + 1) * h;
      err = std::max(err, std::abs(x[i * n + j] -
                                   std::sin(pi * xx) * std::sin(pi * y)));
    }
  }
  const double global_err = co_await ctx.allreduce_max(err);

  co_await ctx.barrier();
  if (ctx.rank() == 0) {
    shared->result.iterations_run = it;
    shared->result.residual = residual;
    shared->result.solution_error = global_err;
    shared->result.total_time = ctx.now() - shared->result.start_time;
  }
}

}  // namespace

CgResult run_distributed_cg(sim::Engine& engine, cluster::Platform& platform,
                            const CgConfig& config,
                            support::Seconds start_time) {
  SSPRED_REQUIRE(config.max_iterations >= 1, "need at least one iteration");
  CgShared shared{config,
                  StripDecomposition::uniform(config.n, platform.size()),
                  CgResult{}};
  shared.result.start_time = start_time;
  shared.result.rank_totals.assign(platform.size(), {0.0, 0.0, 0.0});
  run_ranks(engine, platform, start_time, [&shared](mpi::RankCtx ctx) {
    return cg_rank(ctx, &shared);
  });
  return std::move(shared.result);
}

}  // namespace sspred::sor
