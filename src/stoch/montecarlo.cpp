#include "stoch/montecarlo.hpp"

#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace sspred::stoch {

namespace {

/// Block cap for the sequentially stopped helpers: samples accrue in
/// stats::next_block_width blocks with the stop rule consulted between
/// blocks (same schedule discipline as the blocked IR engine, so trial
/// counts are a pure deterministic function of rule + seed).
constexpr std::size_t kEmpiricalBlockCap = 1024;

/// Draws each block into one reused buffer, merges its moments
/// (OnlineStats::from_block) and reports mean ± 2sd of the merged
/// summary — the IR engine's summary contract (model/ir.hpp).
template <class Draw>
EmpiricalResult run_adaptive(const stats::StopRule& rule, Draw&& draw) {
  SSPRED_REQUIRE(rule.max_trials >= 2, "need at least 2 samples");
  stats::SequentialEstimator est(rule);
  std::vector<double> block;
  for (;;) {
    const std::size_t width =
        stats::next_block_width(est.count(), rule, kEmpiricalBlockCap);
    if (width == 0) break;
    block.resize(width);
    for (double& x : block) x = draw();
    est.merge(stats::OnlineStats::from_block(block));
    if (est.should_stop()) break;
  }
  EmpiricalResult out;
  out.value = StochasticValue::from_mean_sd(est.mean(), est.sd());
  out.samples = est.count();
  out.ci_halfwidth = est.ci_halfwidth();
  out.converged = rule.target <= 0.0 || est.precision_met();
  return out;
}

}  // namespace

double sample(const StochasticValue& v, support::Rng& rng) {
  if (v.is_point()) return v.mean();
  return rng.normal(v.mean(), v.sd());
}

EmpiricalResult empirical_combine(
    const StochasticValue& x, const StochasticValue& y,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule) {
  return run_adaptive(rule,
                      [&] { return op(sample(x, rng), sample(y, rng)); });
}

EmpiricalResult empirical_combine_related(
    const StochasticValue& x, const StochasticValue& y,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule) {
  return run_adaptive(rule, [&] {
    const double z = rng.normal();
    return op(x.mean() + x.sd() * z, y.mean() + y.sd() * z);
  });
}

EmpiricalResult empirical_combine_correlated(
    const StochasticValue& x, const StochasticValue& y, double rho,
    const std::function<double(double, double)>& op, support::Rng& rng,
    const stats::StopRule& rule) {
  SSPRED_REQUIRE(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1,1]");
  const double ortho = std::sqrt(std::max(0.0, 1.0 - rho * rho));
  return run_adaptive(rule, [&] {
    const double zx = rng.normal();
    const double zy = rho * zx + ortho * rng.normal();
    return op(x.mean() + x.sd() * zx, y.mean() + y.sd() * zy);
  });
}

EmpiricalResult empirical_coverage(const StochasticValue& v,
                                   const StochasticValue& range,
                                   support::Rng& rng,
                                   const stats::StopRule& rule) {
  return run_adaptive(
      rule, [&] { return range.contains(sample(v, rng)) ? 1.0 : 0.0; });
}

}  // namespace sspred::stoch
