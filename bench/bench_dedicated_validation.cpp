// Regenerates the paper's §2.2.1 baseline claim: "In a dedicated setting,
// the structural model defined in this section predicted overall
// application execution times to within 2% of actual execution time."
//
// The structural model (point-valued parameters, loads = 1.0) is evaluated
// against full simulated runs across problem sizes and rank counts.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"
#include "support/table.hpp"

namespace {
using namespace sspred;
}

int main() {
  bench::banner("§2.2.1 dedicated validation",
                "structural model vs simulated runs, dedicated platform");

  support::Table t({"grid", "ranks", "predicted (s)", "actual (s)", "error"});
  double worst = 0.0;

  for (const std::size_t ranks : {2, 4}) {
    for (const std::size_t n : {600, 1000, 1400, 2000}) {
      sor::SorConfig cfg;
      cfg.n = n;
      cfg.iterations = 20;
      cfg.real_numerics = false;
      const auto spec = cluster::dedicated_platform(ranks);
      const predict::StructuralModel model(predict::author_sor(spec, cfg));
      const std::vector<stoch::StochasticValue> loads(
          ranks, stoch::StochasticValue(1.0));
      const double predicted =
          model.predict_point(model.make_env(loads, {1.0}));

      sim::Engine engine;
      cluster::Platform platform(engine, spec, 17);
      const double actual =
          sor::run_distributed_sor(engine, platform, cfg).total_time;

      const double err = std::abs(predicted - actual) / actual;
      worst = std::max(worst, err);
      t.add_row({std::to_string(n) + "x" + std::to_string(n),
                 std::to_string(ranks), support::fmt(predicted, 2),
                 support::fmt(actual, 2), support::fmt_pct(err, 2)});
    }
  }
  std::cout << "\n" << t.render();

  bench::section("shape check vs paper");
  bench::compare_line("max dedicated prediction error", "< 2%",
                      support::fmt_pct(worst, 2));
  std::cout << (worst < 0.02 ? "\nWithin the paper's 2% envelope.\n"
                             : "\nWARNING: outside the 2% envelope!\n");
  return worst < 0.02 ? 0 : 1;
}
