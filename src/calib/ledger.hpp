// AccuracyLedger — streaming prediction-accuracy accounting.
//
// The paper's whole claim is a coverage statement: the observed runtime
// should fall inside the predicted stochastic interval about 95% of the
// time (§2.1.1 — and slip below that under long-tailed load). This ledger
// performs that check continuously: it ingests (prediction, observation)
// pairs — per model id and overall — and maintains streaming accuracy
// metrics in O(1) memory per model:
//
//   * empirical coverage vs the nominal target, cumulative and over a
//     fixed rolling window (the paper's 95% story, live);
//   * interval sharpness (mean half-width) — coverage is trivial to buy
//     with infinitely wide intervals, so the two are reported together;
//   * CRPS and pinball loss against the predicted normal (closed forms);
//   * standardized residuals z = (observed - mean) / sd via a Welford
//     accumulator, plus a P² sketch of the |z| quantile at the nominal
//     level (the quantity the conformal recalibrator needs).
//
// Thread safety follows serve::MetricsRegistry: record() and snapshot()
// take a short lock; no allocation happens on the record hot path after
// a model's first observation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats/descriptive.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::calib {

struct LedgerOptions {
  /// Target interval coverage; the stochastic calculus's ±2sd intervals
  /// aim at ~95% (stoch/stochastic_value.hpp).
  double nominal_coverage = 0.95;
  /// Observations in the rolling-coverage window (per model).
  std::size_t coverage_window = 256;
};

/// One-shot copy of a model's (or the overall) accuracy state.
struct CalibrationSnapshot {
  std::uint64_t count = 0;           ///< observations ingested
  std::uint64_t inside = 0;          ///< observations inside the interval
  double coverage = 0.0;             ///< cumulative empirical coverage
  double rolling_coverage = 0.0;     ///< coverage over the rolling window
  std::uint64_t rolling_count = 0;   ///< observations in the window (<= W)
  double nominal_coverage = 0.0;     ///< the target, for report rendering
  double sharpness = 0.0;            ///< mean predicted half-width
  double mean_crps = 0.0;            ///< mean CRPS vs the predicted normal
  double rolling_crps = 0.0;         ///< mean CRPS over the rolling window
                                     ///< (points score |error| here)
  std::uint64_t rolling_crps_count = 0;  ///< observations in that window
  double mean_pinball = 0.0;         ///< mean pinball loss at the interval
                                     ///< quantiles (tau = (1∓nominal)/2)
  double z_mean = 0.0;               ///< standardized-residual mean
  double z_sd = 0.0;                 ///< standardized-residual sd
  double abs_z_quantile = 0.0;       ///< P² estimate of |z| at the nominal
                                     ///< level (2.0 when perfectly calibrated)
  std::uint64_t point_predictions = 0;  ///< half-width 0: no residual defined
};

/// Streaming (prediction interval, observed runtime) accountant.
class AccuracyLedger {
 public:
  explicit AccuracyLedger(LedgerOptions options = {});

  /// Ingests one observation for `model_id`. Point predictions
  /// (half-width 0) update coverage and sharpness but contribute no
  /// standardized residual, CRPS or pinball loss.
  void record(const std::string& model_id,
              const stoch::StochasticValue& predicted, double observed);

  /// Accuracy across every model.
  [[nodiscard]] CalibrationSnapshot snapshot() const;

  /// Accuracy of one model; throws support::Error for an id that has
  /// never been recorded.
  [[nodiscard]] CalibrationSnapshot snapshot(const std::string& model_id) const;

  [[nodiscard]] std::vector<std::string> model_ids() const;

  /// True when `model_id` has at least one recorded observation (the
  /// non-throwing probe the arbiter uses before snapshot()).
  [[nodiscard]] bool has(const std::string& model_id) const;

  [[nodiscard]] const LedgerOptions& options() const noexcept {
    return options_;
  }

 private:
  /// The interval's quantile levels tau = (1∓nominal)/2 and their
  /// standard-normal quantiles: fixed by nominal_coverage, so computed
  /// once rather than per observation.
  struct IntervalQuantiles {
    double tau_lo = 0.0;
    double tau_hi = 0.0;
    double z_lo = 0.0;
    double z_hi = 0.0;
  };

  struct Entry {
    explicit Entry(const LedgerOptions& options);

    void record(const stoch::StochasticValue& predicted, double observed,
                const IntervalQuantiles& quantiles);
    [[nodiscard]] CalibrationSnapshot snapshot(
        const LedgerOptions& options) const;

    std::uint64_t count = 0;
    std::uint64_t inside = 0;
    std::uint64_t points = 0;
    stats::OnlineStats halfwidths;
    stats::OnlineStats crps;
    stats::OnlineStats pinball;
    stats::OnlineStats z;
    stats::P2Quantile abs_z;
    // Rolling hit/miss ring buffer (fixed capacity = coverage_window).
    std::vector<std::uint8_t> ring;
    std::size_t ring_pos = 0;
    std::size_t ring_n = 0;
    std::uint64_t ring_sum = 0;
    // Rolling per-observation CRPS ring (same capacity). Unlike the
    // cumulative `crps` stat, point predictions DO contribute here —
    // scored as |error|, the degenerate-distribution CRPS — because the
    // arbiter compares candidates over this window and a candidate must
    // not escape scoring by emitting points. Summed at snapshot time
    // (256 adds) rather than kept as a running sum, so eviction never
    // accumulates floating-point drift.
    std::vector<double> crps_ring;
    std::size_t crps_ring_pos = 0;
    std::size_t crps_ring_n = 0;
  };

  LedgerOptions options_;
  IntervalQuantiles quantiles_;
  mutable std::mutex mutex_;
  Entry overall_;
  std::map<std::string, Entry> per_model_;
};

/// Closed-form CRPS of the normal N(mean, sd) against observation y
/// (Gneiting & Raftery 2007, eq. 21). Requires sd > 0.
[[nodiscard]] double normal_crps(double mean, double sd, double y);

/// Pinball (quantile) loss of predicted quantile value `q` at level `tau`
/// against observation y.
[[nodiscard]] double pinball_loss(double q, double tau, double y) noexcept;

}  // namespace sspred::calib
