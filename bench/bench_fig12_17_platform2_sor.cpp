// Regenerates paper Figures 12-17 (Platform 2, §3.2): repeated SOR runs
// under bursty load at problem sizes 1000, 1600 and 2000, each trial
// predicted from run-time NWS stochastic load values.
//
// Paper claims reproduced in shape (Fig. 12-13, N=1600): ~80% of actual
// execution times inside the stochastic range with max out-of-range error
// ~14%, versus a ~38.6% max error for the point (mean) predictions. The
// other sizes (Figs. 14-17) behave the same way.
//
// Exits 1 unless both claims hold at every size (the checks and their
// derivation are in check_claims).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "predict/experiment.hpp"
#include "stoch/metrics.hpp"
#include "support/ascii_plot.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;

/// The paper's capture fraction (§3.2: "approximately 80%").
constexpr double kPaperCapture = 0.80;

/// Checks the two headline claims on one size's trials; prints and
/// returns whether both hold.
///
/// Capture. Each trial's actual is inside its interval or not, so over
/// n = 16 trials the captured count is binomial with sd
/// sqrt(16 * 0.8 * 0.2) = 1.6 trials (10% of the fraction): a point
/// threshold on the fraction would fail on noise alone. The check is
/// instead that the observed count is consistent with the paper's 0.80
/// at 95% confidence — the Wilson score interval of captured/16 contains
/// 0.80. At 16 trials that accepts 10..15 captured. All 16 fails it too:
/// intervals wide enough to catch everything have lost the sharpness the
/// paper's 80% reflects.
///
/// Max error. Footnote 6 scores a stochastic prediction by its distance
/// to the range, a point prediction by its distance to the mean, and the
/// paper's claim is that the first is much smaller (14% vs 38.6% at
/// N = 1600). The check is the claim's direction, strictly: the largest
/// out-of-range error is below the largest point error. Both maxima come
/// from the same 16 deterministic trials, so there is no sampling
/// tolerance to allow for.
bool check_claims(const std::vector<predict::TrialOutcome>& outcomes) {
  const std::size_t captured = static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(), [](const auto& o) {
        return o.predicted.contains(o.actual);
      }));
  const auto ci = stoch::wilson_interval(captured, outcomes.size());
  const bool capture_ok = ci.lower <= kPaperCapture &&
                          kPaperCapture <= ci.upper;
  const auto s = predict::score(outcomes);
  const bool error_ok = s.max_range_error < s.max_mean_error;
  std::printf("  check: %zu/%zu captured, Wilson 95%% [%.3f, %.3f] %s 0.80"
              " -> %s\n",
              captured, outcomes.size(), ci.lower, ci.upper,
              capture_ok ? "contains" : "excludes",
              capture_ok ? "pass" : "FAIL");
  std::printf("  check: stochastic max error %.1f%% %s point max error "
              "%.1f%% -> %s\n",
              100.0 * s.max_range_error, error_ok ? "<" : ">=",
              100.0 * s.max_mean_error, error_ok ? "pass" : "FAIL");
  return capture_ok && error_ok;
}

bool run_size(std::size_t n, const char* figures) {
  predict::SeriesConfig cfg;
  cfg.platform = cluster::platform2();
  cfg.sor.n = n;
  cfg.sor.iterations = 15;
  cfg.sor.real_numerics = false;
  cfg.trials = 16;
  cfg.spacing = 200.0;
  // Per-trial stochastic load values from the NWS at run time (paper
  // §3.2); the forecast's postcast error spread supplies the ± term.
  // For the largest size the run outlasts the load bursts, and the paper
  // (§2.1.2) prescribes the occupancy-weighted modal average for
  // long-running applications — so N=2000 switches estimator.
  const bool long_running = n >= 2000;
  cfg.load_source = long_running
                        ? predict::LoadParameterSource::kModalMix
                        : predict::LoadParameterSource::kNwsForecast;
  cfg.history_window = long_running ? 600.0 : 300.0;
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  cfg.seed = 20260707 + n;

  bench::section(std::string(figures) + " — problem size " +
                 std::to_string(n) + "x" + std::to_string(n));
  const auto outcomes = run_series(cfg);

  support::Table t({"t (s)", "interval low", "mean point", "interval high",
                    "actual", "in range?"});
  for (const auto& o : outcomes) {
    t.add_row({support::fmt(o.start_time, 0),
               support::fmt(o.predicted.lower(), 1),
               support::fmt(o.point_predicted(), 1),
               support::fmt(o.predicted.upper(), 1),
               support::fmt(o.actual, 1),
               o.predicted.contains(o.actual) ? "yes" : "NO"});
  }
  std::cout << t.render();

  // The Figs. 12/14/16 view: time-stamped series of actuals vs intervals.
  support::Series actual{"actual execution times", {}, {}, 'A'};
  support::Series low{"stochastic interval low", {}, {}, '-'};
  support::Series high{"stochastic interval high", {}, {}, '+'};
  support::Series mean{"mean point values", {}, {}, 'm'};
  for (const auto& o : outcomes) {
    actual.xs.push_back(o.start_time);
    actual.ys.push_back(o.actual);
    low.xs.push_back(o.start_time);
    low.ys.push_back(o.predicted.lower());
    high.xs.push_back(o.start_time);
    high.ys.push_back(o.predicted.upper());
    mean.xs.push_back(o.start_time);
    mean.ys.push_back(o.point_predicted());
  }
  support::PlotOptions opts;
  opts.title = "execution times and stochastic predictions over time";
  opts.x_label = "trial start (virtual s)";
  opts.y_label = "time (sec)";
  const std::vector<support::Series> series{low, high, mean, actual};
  std::cout << "\n" << support::render_xy(series, opts);

  // The Figs. 13/15/17 companion: the load the slowest host saw at each
  // trial start.
  support::Series load{"load at trial start (slowest host)", {}, {}, 'L'};
  for (const auto& o : outcomes) {
    load.xs.push_back(o.start_time);
    load.ys.push_back(o.load_at_start.front());
  }
  support::PlotOptions lopts;
  lopts.title = "companion load trace (bursty)";
  lopts.x_label = "trial start (virtual s)";
  lopts.y_label = "availability";
  lopts.height = 10;
  const std::vector<support::Series> lseries{load};
  std::cout << support::render_xy(lseries, lopts);

  // Raw data for external replotting.
  std::filesystem::create_directories("bench_data");
  support::CsvWriter csv(
      "bench_data/fig12_17_n" + std::to_string(n) + ".csv",
      {"start_time", "interval_low", "mean_point", "interval_high", "actual",
       "load_at_start"});
  for (const auto& o : outcomes) {
    csv.write_row({o.start_time, o.predicted.lower(), o.point_predicted(),
                   o.predicted.upper(), o.actual, o.load_at_start.front()});
  }
  std::printf("  (raw series: bench_data/fig12_17_n%zu.csv)\n", n);

  const auto s = predict::score(outcomes);
  bench::compare_line("capture fraction", "~80%",
                      support::fmt_pct(s.capture_fraction, 0));
  bench::compare_line("max out-of-range error (stochastic)", "~14%",
                      support::fmt_pct(s.max_range_error, 1));
  bench::compare_line("max error of mean point values", "~38.6%",
                      support::fmt_pct(s.max_mean_error, 1));
  std::printf("  headline: stochastic max error is %.1fx smaller than the "
              "point max error\n",
              s.max_mean_error / std::max(s.max_range_error, 1e-9));
  return check_claims(outcomes);
}

}  // namespace

int main() {
  bench::banner("Figures 12-17",
                "Platform 2 (bursty): stochastic vs point predictions, "
                "three problem sizes");
  bool pass = run_size(1000, "Figures 14-15");
  pass = run_size(1600, "Figures 12-13") && pass;
  pass = run_size(2000, "Figures 16-17") && pass;
  std::printf("\npaper claims at N = 1000, 1600, 2000: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
