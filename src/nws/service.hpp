// The NWS service: per-resource measurement histories + forecasting.
//
// The paper (§3): "The Network Weather Service supplied us with accurate
// run-time information about the CPU load on our machines as well as the
// variance of those values at 5 second intervals." Service reproduces
// that interface: observations stream in; forecast() returns the
// best-postcasting forecaster's prediction together with its error spread,
// packaged as a stochastic value.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "nws/forecasters.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::nws {

/// A forecast with quality information.
struct Forecast {
  double value = 0.0;     ///< predicted next measurement
  double error_sd = 0.0;  ///< RMSE of the winning forecaster (postcast)
  std::string forecaster; ///< name of the winning forecaster

  /// The paper's parameter form: value ± 2·error_sd.
  [[nodiscard]] stoch::StochasticValue sv() const {
    return stoch::StochasticValue::from_mean_sd(value, error_sd);
  }
};

struct ServiceOptions {
  std::size_t history_capacity = 512;  ///< measurements kept per resource
  std::size_t warmup = 8;              ///< observations before postcasting
};

/// Thread safety: histories are guarded by a reader/writer lock, so any
/// number of concurrent readers (forecast/history/postcast_errors/...)
/// may overlap with writers (observe/load_csv). Writers serialize against
/// each other and against readers; a forecast therefore always sees a
/// complete, consistent history — never a half-appended one. forecast()
/// and postcast_errors() copy the history under the lock and postcast
/// the copy, so a writer never waits for a postcast. The serving
/// layer (serve/epoch.hpp) additionally snapshots forecasts into immutable
/// epochs so a batch of predictions shares one consistent view.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Records a measurement for `resource` (e.g. "cpu/sparc2-a"). Throws
  /// support::Error naming the resource, and records nothing, when
  /// `value` is NaN or infinite: one such value would make every
  /// forecaster's postcast error non-finite until it left the history.
  void observe(const std::string& resource, double value);

  /// Number of stored measurements for `resource` (0 if unknown).
  [[nodiscard]] std::size_t history_size(const std::string& resource) const;

  /// The stored history, oldest first.
  [[nodiscard]] std::vector<double> history(const std::string& resource) const;

  /// Forecast for `resource`: the forecast from the whole history of the
  /// forecaster with the lowest postcast MSE (the first in bank order on
  /// a tie). Requires at least warmup+2 observations.
  [[nodiscard]] Forecast forecast(const std::string& resource) const;

  /// Postcast MSE of every forecaster on `resource`'s history, as
  /// (name, mse) pairs in bank order: the mean squared error of its
  /// forecasts from the prefixes of length warmup..n-1 against the value
  /// that followed each.
  [[nodiscard]] std::vector<std::pair<std::string, double>> postcast_errors(
      const std::string& resource) const;

  /// Persists every resource's history as CSV (`resource,index,value`).
  void save_csv(const std::string& path) const;

  /// Loads histories written by save_csv (appending to current state).
  void load_csv(const std::string& path);

  /// All resource names with stored history.
  [[nodiscard]] std::vector<std::string> resources() const;

 private:
  /// One forecaster's pass over a history.
  struct Postcast {
    double mse = 0.0;   ///< postcast MSE
    double next = 0.0;  ///< forecast from the whole history
  };
  /// Copies `resource`'s history once and runs each forecaster once over
  /// its prefixes of length warmup..n, in bank order.
  [[nodiscard]] std::vector<Postcast> postcast(
      const std::string& resource) const;

  ServiceOptions options_;
  std::vector<std::unique_ptr<Forecaster>> bank_;
  mutable std::shared_mutex mutex_;  ///< guards histories_
  std::map<std::string, std::deque<double>> histories_;
};

}  // namespace sspred::nws
