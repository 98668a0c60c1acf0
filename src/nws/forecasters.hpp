// The Network Weather Service forecaster family (Wolski, TR-CS96-494).
//
// Each forecaster predicts the next value of a time series from its
// history. The Service evaluates every forecaster retrospectively
// ("postcasting") and reports the prediction of the one with the lowest
// mean squared error — NWS's dynamic predictor selection. Postcasting
// needs a forecast from every prefix of the history, so each forecaster
// computes them all in one pass (predict_prefixes); a lone forecast is
// the pass over one prefix.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sspred::nws {

/// Interface: predict the next value from `history` (oldest first).
/// Implementations must be stateless across calls.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Forecasts from every prefix of `history` from length `first` on:
  /// out[k] is the forecast from history.first(first + k). Requires
  /// 1 <= first <= history.size() and first + out.size() <= history.size()
  /// + 1. A pass may start at any prefix: out[k] has the same bits
  /// whatever `first` and out.size() are.
  virtual void predict_prefixes(std::span<const double> history,
                                std::size_t first,
                                std::span<double> out) const = 0;

  /// The forecast from the whole, non-empty history: the pass over the
  /// single prefix history.size().
  [[nodiscard]] double predict(std::span<const double> history) const;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Predicts the most recent value.
class LastValue final : public Forecaster {
 public:
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "last"; }
};

/// Predicts the mean of the entire history.
class RunningMean final : public Forecaster {
 public:
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "mean"; }
};

/// Predicts the mean of the last `window` values.
class SlidingMean final : public Forecaster {
 public:
  explicit SlidingMean(std::size_t window);
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t window_;
};

/// Predicts the median of the last `window` values (robust to bursts).
/// The values must not be NaN, which has no place in a sorted window.
class SlidingMedian final : public Forecaster {
 public:
  explicit SlidingMedian(std::size_t window);
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t window_;
};

/// Exponential smoothing with gain `alpha` in (0, 1].
class ExpSmoothing final : public Forecaster {
 public:
  explicit ExpSmoothing(double alpha);
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double alpha_;
};

/// NWS's adaptive-window mean: for each prediction, postcasts a set of
/// candidate windows over the recent history and averages over the window
/// whose one-step errors were smallest.
class AdaptiveMean final : public Forecaster {
 public:
  /// `windows` must be non-empty, ascending.
  explicit AdaptiveMean(std::vector<std::size_t> windows = {5, 10, 20, 50});
  void predict_prefixes(std::span<const double> history, std::size_t first,
                        std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "adaptive"; }

 private:
  std::vector<std::size_t> windows_;
};

/// The default NWS-style bank: last value, running mean, sliding
/// means/medians over several windows, and exponential smoothers.
[[nodiscard]] std::vector<std::unique_ptr<Forecaster>> default_bank();

}  // namespace sspred::nws
