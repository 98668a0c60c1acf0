// Ablation A3: the NWS forecaster bank vs any single fixed forecaster.
//
// The paper takes run-time load stochastic values from the Network Weather
// Service, whose defining feature is dynamic best-predictor selection.
// This bench postcasts a bursty Platform-2 load trace with every
// forecaster and with dynamic selection, and reports one-step prediction
// RMSE.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "machine/load_trace.hpp"
#include "nws/forecasters.hpp"
#include "nws/service.hpp"
#include "support/table.hpp"

namespace {
using namespace sspred;
}

int main() {
  bench::banner("Ablation A3",
                "NWS dynamic forecaster selection vs fixed forecasters");

  // A long bursty load history sampled at the NWS's 5 s period.
  const machine::LoadTrace trace = machine::LoadTrace::generate(
      cluster::platform2_load(), 4'000, 5.0, 13);
  const auto samples = trace.samples();
  const std::vector<double> xs(samples.begin(), samples.end());

  const auto bank = nws::default_bank();
  constexpr std::size_t kWindow = 120;  // 10 minutes of history per forecast
  constexpr std::size_t kWarmup = 16;

  // Dynamic selection is the service's own: it keeps the last kWindow
  // measurements, postcasts every forecaster inside them and forecasts
  // with the best.
  nws::ServiceOptions options;
  options.history_capacity = kWindow;
  options.warmup = kWarmup;
  nws::Service service(options);
  std::size_t observed = 0;

  std::vector<double> fixed_se(bank.size(), 0.0);
  double dynamic_se = 0.0;
  std::size_t dynamic_switches = 0;
  std::string last_winner;
  std::size_t evals = 0;

  for (std::size_t t = kWindow; t + 1 < xs.size(); t += 7) {
    const std::span<const double> history(xs.data() + t - kWindow, kWindow);
    const double actual_next = xs[t];

    // Fixed forecasters.
    for (std::size_t f = 0; f < bank.size(); ++f) {
      const double err = bank[f]->predict(history) - actual_next;
      fixed_se[f] += err * err;
    }

    // Dynamic selection over the same history.
    for (; observed < t; ++observed) service.observe("cpu", xs[observed]);
    const nws::Forecast forecast = service.forecast("cpu");
    const double err = forecast.value - actual_next;
    dynamic_se += err * err;
    if (forecast.forecaster != last_winner) {
      if (!last_winner.empty()) ++dynamic_switches;
      last_winner = forecast.forecaster;
    }
    ++evals;
  }

  support::Table t({"forecaster", "one-step RMSE"});
  double best_fixed = 1e300;
  for (std::size_t f = 0; f < bank.size(); ++f) {
    const double rmse = std::sqrt(fixed_se[f] / static_cast<double>(evals));
    best_fixed = std::min(best_fixed, rmse);
    t.add_row({bank[f]->name(), support::fmt(rmse, 4)});
  }
  const double dyn_rmse = std::sqrt(dynamic_se / static_cast<double>(evals));
  t.add_row({"DYNAMIC (NWS selection)", support::fmt(dyn_rmse, 4)});
  std::cout << "\n" << t.render();

  bench::section("reading");
  std::printf("  evaluations: %zu, winner changed %zu times\n", evals,
              dynamic_switches);
  bench::compare_line("dynamic vs best fixed RMSE",
                      "competitive with the best",
                      support::fmt(dyn_rmse, 4) + " vs " +
                          support::fmt(best_fixed, 4));
  std::cout << "  Dynamic selection needs no a-priori knowledge of which "
               "fixed forecaster\n  suits the trace — the NWS design point "
               "this library reproduces.\n";
  return 0;
}
