// Regenerates paper Figures 8-9 (Platform 1, §3.1): the single-mode load
// trace, and actual SOR execution times vs the stochastic prediction
// interval across problem sizes.
//
// Paper claims reproduced in shape: actual times fall within the
// stochastic interval (0% outside); the mean-vs-actual discrepancy stays
// below ~10% (paper: max 9.7%).
//
// Exits 1 if any actual falls outside its interval. Derivation: the
// paper reports 0% outside at every size on Platform 1, whose load stays
// in one mode. The sweep is seeded and runs in virtual time, so its six
// outcomes are the same bits on every run rather than a sample that
// varies between runs; there is no sampling noise to allow for, and the
// claim is checked as stated: one actual outside fails.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "predict/experiment.hpp"
#include "support/ascii_plot.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace {
using namespace sspred;
}

int main() {
  bench::banner("Figures 8-9",
                "Platform 1: single-mode load and execution times vs "
                "stochastic interval");

  predict::SeriesConfig cfg;
  cfg.platform = cluster::platform1();
  cfg.sor.iterations = 20;
  cfg.sor.real_numerics = false;
  cfg.load_source = predict::LoadParameterSource::kRecentSample;
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  cfg.first_start = 400.0;
  cfg.spacing = 400.0;

  bench::section("Figure 8 — load of the slowest machine (stays in one mode)");
  {
    sim::Engine engine;
    cluster::Platform platform(engine, cfg.platform, cfg.seed);
    const auto samples = platform.machine(0).trace().samples();
    const std::vector<double> window(samples.begin(),
                                     samples.begin() + 600);
    bench::print_series(window, "CPU load, slowest host (sparc2-a)",
                        "availability");
    const auto sv = stoch::StochasticValue::from_sample(window);
    bench::compare_line("mode mean", "0.48", support::fmt(sv.mean(), 3));
    bench::compare_line("stochastic load value", "0.48 ± 0.05",
                        sv.to_string(3));
  }

  bench::section("Figure 9 — execution times vs problem size");
  const std::vector<std::size_t> sizes{1000, 1200, 1400, 1600, 1800, 2000};
  const auto outcomes = run_size_sweep(cfg, sizes);

  support::Table t({"size", "interval low", "mean point", "interval high",
                    "actual", "in range?", "mean err"});
  std::size_t outside = 0;
  double worst_mean_err = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    const bool in = o.predicted.contains(o.actual);
    if (!in) ++outside;
    const double mean_err = std::abs(o.point_predicted() - o.actual) / o.actual;
    worst_mean_err = std::max(worst_mean_err, mean_err);
    t.add_row({std::to_string(sizes[i]) + "x" + std::to_string(sizes[i]),
               support::fmt(o.predicted.lower(), 1),
               support::fmt(o.point_predicted(), 1),
               support::fmt(o.predicted.upper(), 1),
               support::fmt(o.actual, 1), in ? "yes" : "NO",
               support::fmt_pct(mean_err, 1)});
  }
  std::cout << t.render();

  // The Fig. 9 view: three curves over problem size.
  support::Series actual{"actual", {}, {}, 'A'};
  support::Series low{"interval low", {}, {}, '-'};
  support::Series high{"interval high", {}, {}, '+'};
  support::Series mean{"mean point value", {}, {}, 'm'};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const double x = static_cast<double>(sizes[i]);
    actual.xs.push_back(x);
    actual.ys.push_back(outcomes[i].actual);
    low.xs.push_back(x);
    low.ys.push_back(outcomes[i].predicted.lower());
    high.xs.push_back(x);
    high.ys.push_back(outcomes[i].predicted.upper());
    mean.xs.push_back(x);
    mean.ys.push_back(outcomes[i].point_predicted());
  }
  support::PlotOptions opts;
  opts.title = "execution time vs problem size";
  opts.x_label = "problem size N";
  opts.y_label = "time (sec)";
  const std::vector<support::Series> series{low, high, mean, actual};
  std::cout << "\n" << support::render_xy(series, opts);

  std::filesystem::create_directories("bench_data");
  support::CsvWriter csv("bench_data/fig9.csv",
                         {"n", "interval_low", "mean_point", "interval_high",
                          "actual"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    csv.write_row({static_cast<double>(sizes[i]),
                   outcomes[i].predicted.lower(),
                   outcomes[i].point_predicted(),
                   outcomes[i].predicted.upper(), outcomes[i].actual});
  }
  std::cout << "  (raw series: bench_data/fig9.csv)\n";

  bench::section("shape check vs paper");
  bench::compare_line("actuals outside stochastic interval", "0%",
                      support::fmt_pct(static_cast<double>(outside) /
                                           static_cast<double>(outcomes.size()),
                                       0));
  bench::compare_line("max mean-vs-actual discrepancy", "9.7%",
                      support::fmt_pct(worst_mean_err, 1));
  std::printf("\npaper claim (0%% outside): %s\n",
              outside == 0 ? "PASS" : "FAIL");
  return outside == 0 ? 0 : 1;
}
