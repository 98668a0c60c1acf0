// Ablation A5: time-balancing strip decomposition (paper footnote 2).
//
// On the heterogeneous Platform 1, uniform strips leave the Sparc-2
// saturated while the Sparc-10 idles. Balancing rows by capacity
// (load/BM) — with the load taken as a stochastic value — shortens runs
// substantially; the conservative variant additionally hedges against
// high-variance hosts.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "predict/decomposition_advisor.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"
#include "support/table.hpp"

namespace {
using namespace sspred;

const char* strategy_name(predict::BalanceStrategy s) {
  switch (s) {
    case predict::BalanceStrategy::kUniform:
      return "uniform";
    case predict::BalanceStrategy::kMeanCapacity:
      return "capacity (mean load)";
    case predict::BalanceStrategy::kConservative:
      return "capacity (conservative)";
  }
  return "?";
}
}  // namespace

int main() {
  bench::banner("Ablation A5",
                "strip decomposition strategies on the heterogeneous "
                "Platform 1");

  const auto spec = cluster::platform1();
  // Stochastic loads as the NWS would report them: host 0 in its centre
  // mode, the rest quiet.
  const std::vector<stoch::StochasticValue> loads{
      stoch::StochasticValue(0.48, 0.05), stoch::StochasticValue(0.92, 0.03),
      stoch::StochasticValue(0.92, 0.03), stoch::StochasticValue(0.92, 0.03)};

  sor::SorConfig base;
  base.n = 1000;
  base.iterations = 15;
  base.real_numerics = false;

  support::Table t({"strategy", "rows per rank", "imbalance", "predicted",
                    "actual (s)", "vs uniform"});
  double t_uniform = 0.0;

  for (auto strategy : {predict::BalanceStrategy::kUniform,
                        predict::BalanceStrategy::kMeanCapacity,
                        predict::BalanceStrategy::kConservative}) {
    sor::SorConfig cfg = base;
    const auto rows = predict::recommend_rows(spec, cfg.n, loads, strategy);
    cfg.rows_per_rank.assign(rows.begin(), rows.end());

    const predict::StructuralModel model(predict::author_sor(spec, cfg));
    const auto predicted =
        model.predict(model.make_env(loads, {0.525, 0.12}));

    sim::Engine engine;
    cluster::Platform platform(engine, spec, 33);
    const double actual =
        sor::run_distributed_sor(engine, platform, cfg).total_time;
    if (strategy == predict::BalanceStrategy::kUniform) t_uniform = actual;

    std::string row_str;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (p > 0) row_str += "/";
      row_str += std::to_string(rows[p]);
    }
    t.add_row({strategy_name(strategy), row_str,
               support::fmt(predict::imbalance(spec, cfg.n, rows, loads), 2),
               predicted.to_string(1), support::fmt(actual, 1),
               support::fmt(actual / t_uniform, 2) + "x"});
  }
  std::cout << "\nplatform1 hosts: sparc2-a (load 0.48±0.05), sparc2-b, "
               "sparc5, sparc10 (quiet)\n\n"
            << t.render();

  bench::section("reading");
  std::cout
      << "  * Uniform strips: the loaded Sparc-2 dominates every iteration "
         "(imbalance\n    ≈ the slow host's share of the mean phase time).\n"
      << "  * Capacity balancing with stochastic loads (the paper's "
         "footnote-2 goal:\n    \"all processors complete at the same "
         "time\") roughly halves the run.\n"
      << "  * The conservative variant trims rows from high-variance hosts "
         "— cheap\n    insurance when mispredictions carry a penalty "
         "(paper §1.2).\n";
  return 0;
}
