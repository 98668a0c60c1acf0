// Statistical agreement between two Monte-Carlo samples that should come
// from one distribution but were drawn from different RNG streams — the
// blocked engine (ir::Program::sample_into) against the Expr tree sampler
// (Expr::sample), which share no stream order.
//
// Mean. The difference of two independent sample means has variance
// s_a²/n_a + s_b²/n_b, so z = (m_a − m_b) / sqrt(s_a²/n_a + s_b²/n_b) is
// close to standard normal when both samplers draw the same distribution
// (n in the thousands, central limit theorem).
//
// Standard deviation. The sample variance has Var(s²) ≈ σ⁴(κ − 1)/n, where
// κ = μ₄/σ⁴ is the kurtosis (3 for a normal). By the delta method ln s has
// standard error sqrt((κ − 1)/(4n)), so ln(s_a/s_b) has standard error
// sqrt((κ − 1)/4 · (1/n_a + 1/n_b)); κ is estimated from both samples.
//
// Both checks allow kSigmas standard errors: P(|Z| > 4.5) = 6.8e-6 for a
// standard normal Z, so even a test making 40 such comparisons has a false
// alarm chance of at most 40 · 6.8e-6 = 2.7e-4 per check (Bonferroni). A
// constant sample has a NaN kurtosis, which fails the sd bound.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "model/expr.hpp"
#include "support/rng.hpp"

namespace sspred::testutil {

inline constexpr double kSigmas = 4.5;

/// `trials` Monte-Carlo samples through the tree walker (Expr::sample),
/// each trial on a fresh per-trial parameter cache.
inline std::vector<double> tree_samples(const model::Expr& expr,
                                        const model::Environment& env,
                                        support::Rng& rng,
                                        std::size_t trials) {
  std::vector<double> outcomes;
  outcomes.reserve(trials);
  model::SampleCache cache;
  for (std::size_t t = 0; t < trials; ++t) {
    cache.clear();
    outcomes.push_back(expr.sample(env, cache, rng));
  }
  return outcomes;
}

/// Mean, standard deviation (n − 1 denominator) and kurtosis of a sample.
struct Moments {
  double mean = 0.0;
  double sd = 0.0;
  double kurtosis = 0.0;  ///< m₄ / m₂² over the sample; 3 for a normal
};

inline Moments moments(std::span<const double> xs) {
  const double n = static_cast<double>(xs.size());
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= n;
  double m2 = 0.0;
  double m4 = 0.0;
  for (const double x : xs) {
    const double d2 = (x - mean) * (x - mean);
    m2 += d2;
    m4 += d2 * d2;
  }
  m2 /= n;
  m4 /= n;
  return {mean, std::sqrt(m2 * n / (n - 1.0)), m4 / (m2 * m2)};
}

/// How far apart two samples are, in the units derived above.
struct Agreement {
  Moments a;
  Moments b;
  double z = 0.0;       ///< mean difference in standard errors
  double sd_log = 0.0;  ///< |ln(sd_a / sd_b)|
  double sd_tol = 0.0;  ///< kSigmas standard errors of ln(sd_a / sd_b)
};

inline Agreement agreement(std::span<const double> a,
                           std::span<const double> b) {
  Agreement g{moments(a), moments(b)};
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  g.z = (g.a.mean - g.b.mean) /
        std::sqrt(g.a.sd * g.a.sd / na + g.b.sd * g.b.sd / nb);
  g.sd_log = std::abs(std::log(g.a.sd / g.b.sd));
  const double kurtosis = 0.5 * (g.a.kurtosis + g.b.kurtosis);
  g.sd_tol =
      kSigmas * std::sqrt((kurtosis - 1.0) / 4.0 * (1.0 / na + 1.0 / nb));
  return g;
}

}  // namespace sspred::testutil
