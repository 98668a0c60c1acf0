// PredictorBank — per-structure learned predictors beside the
// structural models.
//
// One (RlsPredictor, StreamingQuantiles) pair per model *structure key*
// (serve/program_cache.hpp): model ids sharing a compiled program share
// training data, exactly as they share the program. The bank trains
// from the same observation stream that feeds the accuracy ledger —
// PredictionService::report_observation hands it (features, observed
// runtime) pairs — and serves a full distributional prediction:
//
//     mean      = theta' x + q50          (median residual correction)
//     halfwidth = 2 * max(q95 - q50, q50 - q05) / 1.6449
//
// i.e. the wider residual-quantile flank scaled from a 95%-tail z-score
// to the ±2sd convention of stoch::StochasticValue. The half-width is
// floored at 1e-3 of |mean| so a learned prediction is never a
// degenerate point — the conformal recalibrator and the ledger's
// residual machinery both need halfwidth > 0. A structure key offers
// predictions once it has kBankWarmup observations.
//
// Thread safety: a single mutex over the key map; updates and
// predictions are O(dim^2) / O(dim) inside it. State is process-local
// by design — a restarted node rebuilds its bank from fresh
// observations (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "learn/quantile.hpp"
#include "learn/rls.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::learn {

/// Observations a structure key needs before the bank offers
/// predictions for it (the RLS estimate is pure prior until roughly dim
/// observations arrive).
inline constexpr std::size_t kBankWarmup = 16;

/// One learned distributional prediction.
struct LearnedPrediction {
  stoch::StochasticValue value;  ///< mean ± halfwidth, halfwidth > 0
  double q05 = 0.0;              ///< residual quantiles behind the value
  double q50 = 0.0;
  double q95 = 0.0;
  std::uint64_t observations = 0;  ///< training count for this structure
};

/// Summary row for introspection (CLI, tests).
struct BankSnapshot {
  std::string structure_key;
  std::uint64_t observations = 0;
  double innovation_sd = 0.0;  ///< sqrt of the RLS innovation variance
  std::vector<double> coefficients;
};

class PredictorBank {
 public:
  /// `forgetting` is every key's RLS forgetting factor (RlsOptions).
  explicit PredictorBank(double forgetting = RlsOptions{}.forgetting)
      : forgetting_(forgetting) {}

  /// Learned prediction for `structure_key` at feature point `x`, or
  /// nullopt while the key is still warming up (unknown or fewer than
  /// kBankWarmup updates).
  [[nodiscard]] std::optional<LearnedPrediction> predict(
      const std::string& structure_key, std::span<const double> x) const;

  /// One training step: feature vector + observed runtime. Creates the
  /// key's predictors on first sight (dimension fixed at x.size()).
  void observe(const std::string& structure_key, std::span<const double> x,
               double observed);

  [[nodiscard]] std::uint64_t observations(
      const std::string& structure_key) const;
  [[nodiscard]] std::vector<BankSnapshot> snapshot() const;

 private:
  struct Entry {
    Entry(std::size_t dim, double forgetting)
        : rls(dim, RlsOptions{forgetting}) {}
    RlsPredictor rls;
    StreamingQuantiles residuals;
  };

  double forgetting_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace sspred::learn
