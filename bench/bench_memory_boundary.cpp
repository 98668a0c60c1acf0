// The memory boundary of paper Fig. 9: "execution time measurements fall
// entirely within the stochastic prediction ... for problem sizes which
// fit within main memory."
//
// This bench sweeps problem sizes across the slowest host's memory
// capacity: in-core the paper's model tracks the runs; beyond it the
// plain model underpredicts badly, and the memory-aware extension
// (SorModelOptions::account_memory) restores accuracy.
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
  bench::banner("Fig. 9 memory boundary",
                "prediction validity ends at main memory — and the "
                "memory-aware model extends it");

  // Dedicated platform, memory shrunk so the boundary falls mid-sweep.
  cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  for (auto& h : spec.hosts) h.machine.memory_elements = 450'000.0;
  const std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(1.0));

  support::Table t({"grid", "strip working set", "fits?", "actual (s)",
                    "paper model", "err", "memory-aware", "err"});

  for (const std::size_t n : {600, 800, 1000, 1200, 1400, 1600}) {
    sor::SorConfig cfg;
    cfg.n = n;
    cfg.iterations = 10;
    cfg.real_numerics = false;

    const auto rows = n / 4;
    const double working_set =
        2.0 * static_cast<double>(rows + 2) * (static_cast<double>(n) + 2.0);
    const bool fits = working_set <= spec.hosts[0].machine.memory_elements;

    predict::SorModelOptions plain;
    plain.account_memory = false;
    const predict::StructuralModel paper_model(
        predict::author_sor(spec, cfg, plain));
    const double paper_pred =
        paper_model.predict_point(paper_model.make_env(loads, {1.0}));

    predict::SorModelOptions aware;
    aware.account_memory = true;
    const predict::StructuralModel mem_model(
        predict::author_sor(spec, cfg, aware));
    const double mem_pred =
        mem_model.predict_point(mem_model.make_env(loads, {1.0}));

    sim::Engine engine;
    cluster::Platform platform(engine, spec, 21);
    const double actual =
        sor::run_distributed_sor(engine, platform, cfg).total_time;

    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               support::fmt(working_set / 1e3, 0) + "k elts",
               fits ? "yes" : "NO", support::fmt(actual, 2),
               support::fmt(paper_pred, 2),
               support::fmt_pct(std::abs(paper_pred - actual) / actual, 1),
               support::fmt(mem_pred, 2),
               support::fmt_pct(std::abs(mem_pred - actual) / actual, 1)});
  }
  std::cout << "\nhosts: 4x sparc10, memory capped at 450k elements\n\n"
            << t.render();

  bench::section("reading");
  std::cout
      << "  * In-core rows: both models are within ~1% (the paper's Fig. 9 "
         "regime).\n"
      << "  * Past the boundary the paper model's error explodes — exactly "
         "why the\n    paper scopes its claim to problem sizes that fit in "
         "main memory.\n"
      << "  * account_memory folds the host's thrashing curve into the "
         "compute\n    components and stays accurate on both sides.\n";
  return 0;
}
