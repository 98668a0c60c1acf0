#include "learn/rls.hpp"

#include "support/error.hpp"

namespace sspred::learn {
namespace {

/// Initial covariance scale: P_0 = kInitialCovariance * I. Large values
/// mean "no prior" — the first dim observations essentially solve the
/// interpolation problem exactly.
constexpr double kInitialCovariance = 1e4;
/// EWMA weight for the innovation-variance estimate.
constexpr double kVarianceForgetting = 0.95;

}  // namespace

RlsPredictor::RlsPredictor(std::size_t dim, RlsOptions options)
    : dim_(dim), options_(options) {
  SSPRED_REQUIRE(dim_ >= 1, "RLS predictor needs at least one feature");
  SSPRED_REQUIRE(options_.forgetting > 0.0 && options_.forgetting <= 1.0,
                 "RLS forgetting factor must be in (0, 1]");
  theta_.assign(dim_, 0.0);
  p_.assign(dim_ * dim_, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    p_[i * dim_ + i] = kInitialCovariance;
  }
  px_.assign(dim_, 0.0);
}

double RlsPredictor::predict(std::span<const double> x) const {
  SSPRED_REQUIRE(x.size() == dim_, "RLS feature dimension mismatch");
  double y = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) y += theta_[i] * x[i];
  return y;
}

void RlsPredictor::update(std::span<const double> x, double y) {
  SSPRED_REQUIRE(x.size() == dim_, "RLS feature dimension mismatch");
  const double lambda = options_.forgetting;

  // Innovation (a-priori error) against the current coefficients; its
  // EWMA is the spread estimate the bank reads. Tracked before the
  // coefficient update so it measures true one-step-ahead error.
  const double innovation = y - predict(x);
  if (count_ == 0) {
    innovation_var_ = 0.0;  // first innovation is pure prior, not error
  } else {
    innovation_var_ = kVarianceForgetting * innovation_var_ +
                      (1.0 - kVarianceForgetting) * innovation * innovation;
  }
  ++count_;

  // Standard RLS rank-one update:
  //   k = P x / (lambda + x' P x)
  //   theta += k * innovation
  //   P = (P - k x' P) / lambda
  for (std::size_t i = 0; i < dim_; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) s += p_[i * dim_ + j] * x[j];
    px_[i] = s;
  }
  double denom = lambda;
  for (std::size_t i = 0; i < dim_; ++i) denom += x[i] * px_[i];
  // denom >= lambda > 0 as long as P stays positive semi-definite, which
  // the symmetric update below preserves in exact arithmetic; the guard
  // keeps a long-degraded P from ever dividing by ~0.
  if (denom < 1e-300) return;

  for (std::size_t i = 0; i < dim_; ++i) {
    const double k_i = px_[i] / denom;
    theta_[i] += k_i * innovation;
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    const double k_i = px_[i] / denom;
    for (std::size_t j = 0; j < dim_; ++j) {
      // (P - k x'P) / lambda, using the symmetric form k_i * px_j so the
      // update cannot break P's symmetry through rounding.
      p_[i * dim_ + j] = (p_[i * dim_ + j] - k_i * px_[j]) / lambda;
    }
  }
}

}  // namespace sspred::learn
