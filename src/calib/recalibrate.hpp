// Conformal interval recalibration.
//
// When the ledger shows coverage slipping (or a drift detector fires),
// the structural model itself is usually still right about the *shape*
// of the computation — it is the parameter uncertainty that is under- or
// over-stated. The recalibrator fixes the symptom without touching the
// model: it maintains, per model id, a rolling window of normalized
// nonconformity scores
//
//     s_i = |observed_i - mean_i| / halfwidth_i
//
// and emits the split-conformal empirical quantile of that window at the
// nominal level as a *scale factor* for the predicted ± half-widths. An
// interval mean ± scale·halfwidth then re-attains nominal coverage over
// the window by construction (the standard conformal argument, with the
// (n+1)-corrected rank), and adapts when the error regime shifts because
// old scores age out of the window.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stoch/stochastic_value.hpp"

namespace sspred::calib {

struct RecalibratorOptions {
  /// Target interval coverage.
  double nominal = 0.95;
  /// Scores kept per model (split-conformal calibration window).
  std::size_t window = 128;
  /// Scores required before scale() leaves 1.0.
  std::size_t min_samples = 20;
  /// Clamp on the emitted scale factor (guards against a degenerate
  /// window shrinking intervals to nothing or exploding them).
  double min_scale = 0.25;
  double max_scale = 10.0;
};

class ConformalRecalibrator {
 public:
  explicit ConformalRecalibrator(RecalibratorOptions options = {});

  /// Ingests one observation. Point predictions (half-width 0) carry no
  /// normalized score and are ignored.
  void record(const std::string& model_id,
              const stoch::StochasticValue& predicted, double observed);

  /// Half-width scale factor for `model_id`: 1.0 until min_samples scores
  /// exist, then the clamped conformal quantile of the rolling window.
  [[nodiscard]] double scale(const std::string& model_id) const;

  /// The recalibrated interval: mean ± scale(model_id)·halfwidth.
  [[nodiscard]] stoch::StochasticValue apply(
      const std::string& model_id,
      const stoch::StochasticValue& predicted) const;

  /// Scores currently held for `model_id` (min(observations, window)).
  [[nodiscard]] std::uint64_t count(const std::string& model_id) const;

  [[nodiscard]] const RecalibratorOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Window {
    std::vector<double> ring;
    std::size_t pos = 0;
    std::size_t filled = 0;
  };

  /// Conformal quantile of the window's scores ((n+1)-corrected rank).
  [[nodiscard]] double window_scale(const Window& window) const;

  RecalibratorOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Window> per_model_;
};

}  // namespace sspred::calib
