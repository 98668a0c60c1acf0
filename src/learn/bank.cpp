#include "learn/bank.hpp"

#include <algorithm>
#include <cmath>

namespace sspred::learn {
namespace {

/// z-score of the 0.95 tail of the standard normal: maps the residual
/// q50->q95 (or q05->q50) flank back to one standard deviation, which
/// StochasticValue then doubles into its ±2sd half-width.
constexpr double kZ95 = 1.6448536269514722;

/// Half-width floor relative to |mean|, so learned predictions are never
/// degenerate points.
constexpr double kMinRelativeHalfwidth = 1e-3;

}  // namespace

std::optional<LearnedPrediction> PredictorBank::predict(
    const std::string& structure_key, std::span<const double> x) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(structure_key);
  if (it == entries_.end()) return std::nullopt;
  const Entry& entry = it->second;
  if (entry.rls.count() < kBankWarmup) return std::nullopt;

  const auto [q05, q50, q95] = entry.residuals.quantiles();
  const double mean = entry.rls.predict(x) + q50;
  // The wider residual flank sets the spread; asymmetric residuals get
  // the conservative side. Floors keep the value strictly stochastic.
  const double flank = std::max(q95 - q50, q50 - q05);
  const double halfwidth =
      std::max({2.0 * flank / kZ95,
                std::abs(mean) * kMinRelativeHalfwidth, 1e-9});

  LearnedPrediction out;
  out.value = stoch::StochasticValue(mean, halfwidth);
  out.q05 = q05;
  out.q50 = q50;
  out.q95 = q95;
  out.observations = entry.rls.count();
  return out;
}

void PredictorBank::observe(const std::string& structure_key,
                            std::span<const double> x, double observed) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(structure_key);
  if (it == entries_.end()) {
    it = entries_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(structure_key),
                      std::forward_as_tuple(x.size(), forgetting_))
             .first;
  }
  Entry& entry = it->second;
  // Residual against the pre-update coefficients (one-step-ahead error),
  // so the quantile tracker measures genuine predictive spread.
  const double residual = observed - entry.rls.predict(x);
  entry.rls.update(x, observed);
  // Skip the first residual: with P0 ~ "no prior" it is dominated by the
  // zero-initialized coefficients, not by noise.
  if (entry.rls.count() > 1) entry.residuals.add(residual);
}

std::uint64_t PredictorBank::observations(
    const std::string& structure_key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(structure_key);
  return it == entries_.end() ? 0 : it->second.rls.count();
}

std::vector<BankSnapshot> PredictorBank::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<BankSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    BankSnapshot row;
    row.structure_key = key;
    row.observations = entry.rls.count();
    row.innovation_sd = std::sqrt(std::max(entry.rls.innovation_variance(), 0.0));
    const auto coeffs = entry.rls.coefficients();
    row.coefficients.assign(coeffs.begin(), coeffs.end());
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace sspred::learn
