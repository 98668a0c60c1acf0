// Ablation A8: shared-segment vs switched fabric.
//
// The paper's platforms share one 10 Mbit ethernet; a switched full-duplex
// network confines contention to each NIC. This bench quantifies what that
// changes for the SOR exchange pattern, and shows the fabric-aware
// structural model tracks both.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"
#include "support/table.hpp"

namespace {
using namespace sspred;

struct Row {
  double actual;
  double predicted;
};

Row run_on(cluster::FabricKind fabric, std::size_t n) {
  cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  spec.fabric = fabric;
  sor::SorConfig cfg;
  cfg.n = n;
  cfg.iterations = 12;
  cfg.real_numerics = false;

  const predict::StructuralModel model(predict::author_sor(spec, cfg));
  const std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(1.0));
  const double predicted = model.predict_point(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 61);
  const double actual =
      sor::run_distributed_sor(engine, platform, cfg).total_time;
  return {actual, predicted};
}

}  // namespace

int main() {
  bench::banner("Ablation A8",
                "shared 10 Mbit segment vs switched full-duplex fabric");

  support::Table t({"grid", "shared actual", "shared model", "switched actual",
                    "switched model", "fabric speedup"});
  for (const std::size_t n : {200, 400, 800, 1600}) {
    const Row shared = run_on(cluster::FabricKind::kSharedSegment, n);
    const Row switched = run_on(cluster::FabricKind::kSwitched, n);
    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               support::fmt(shared.actual, 2),
               support::fmt(shared.predicted, 2),
               support::fmt(switched.actual, 2),
               support::fmt(switched.predicted, 2),
               support::fmt(shared.actual / switched.actual, 2) + "x"});
  }
  std::cout << "\n4x sparc10 (dedicated loads), 12 iterations\n\n"
            << t.render();

  bench::section("reading");
  std::cout
      << "  * On the shared segment all 2(P-1) ghost messages of a phase "
         "contend; a\n    switch cuts per-phase transfer time to ~2 "
         "messages per NIC.\n"
      << "  * Comm-bound grids gain the most; compute-bound grids barely "
         "notice —\n    the same crossover the overlap ablation shows.\n"
      << "  * The structural model only needs the fabric's concurrency "
         "profile to\n    track both networks.\n";
  return 0;
}
