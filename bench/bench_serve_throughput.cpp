// Serving-layer throughput (google-benchmark): a naive single-request
// loop that rebuilds the structural model per request (what callers did
// before src/serve/) versus the PredictionService with its compiled-
// program cache and worker pool, with dequeue-time coalescing of
// identical requests on (max_batch 64) and off (max_batch 1). Results
// are recorded in BENCH_serve_throughput.json; the headline comparison
// is BM_BaselineRecompileLoop vs the workers:4 rows (items_per_second).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "predict/sor_model.hpp"
#include "serve/service.hpp"
#include "stoch/stochastic_value.hpp"

namespace {

using namespace sspred;

constexpr std::size_t kHosts = 8;
constexpr std::size_t kBatch = 64;
// Rotating distinct load bindings: coalescing can only merge requests
// that happen to carry the same bindings, so the cache effect is not
// conflated with trivial all-identical merging.
constexpr std::size_t kDistinctLoads = 16;

serve::ModelSpec bench_spec() {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(kHosts);
  spec.config.n = 1000;
  spec.config.iterations = 30;
  return spec;
}

std::vector<stoch::StochasticValue> loads_at(std::size_t i) {
  std::vector<stoch::StochasticValue> loads;
  for (std::size_t h = 0; h < kHosts; ++h) {
    loads.push_back(stoch::StochasticValue(
        0.5 + 0.02 * double((i + h) % kDistinctLoads), 0.1));
  }
  return loads;
}

// Baseline: what a caller without src/serve/ does — rebuild (and thus
// recompile) the structural model for every request, then evaluate.
void BM_BaselineRecompileLoop(benchmark::State& state) {
  const auto spec = bench_spec();
  std::size_t i = 0;
  for (auto _ : state) {
    const predict::SorStructuralModel model(spec.platform, spec.config,
                                            spec.options);
    benchmark::DoNotOptimize(model.predict(
        model.make_slot_env(loads_at(i++), stoch::StochasticValue(1.0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BaselineRecompileLoop)->UseRealTime();

// Service: submit kBatch requests, wait for all. Arguments select the
// worker count and max_batch (1: every request evaluated alone).
void BM_ServiceThroughput(benchmark::State& state) {
  serve::ServiceOptions options;
  options.workers = std::size_t(state.range(0));
  options.max_batch = std::size_t(state.range(1));
  options.queue_capacity = 4 * kBatch;
  serve::PredictionService service(options);
  service.register_model("sor", bench_spec());

  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<std::future<serve::PredictResult>> futures;
    futures.reserve(kBatch);
    for (std::size_t r = 0; r < kBatch; ++r) {
      serve::PredictRequest request;
      request.model_id = "sor";
      request.loads = loads_at(i++);
      futures.push_back(service.submit(std::move(request)));
    }
    for (auto& f : futures) {
      const auto result = f.get();
      if (!result.ok()) state.SkipWithError(result.error.c_str());
      benchmark::DoNotOptimize(result.value);
    }
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBatch));
  state.counters["cache_hits"] = double(
      service.metrics().counter("cache_hits").value());
  state.counters["coalesced"] = double(
      service.metrics().counter("requests_coalesced").value());
}
BENCHMARK(BM_ServiceThroughput)
    ->UseRealTime()
    ->ArgNames({"workers", "max_batch"})
    ->Args({1, 1})
    ->Args({1, 64})
    ->Args({4, 1})
    ->Args({4, 64});

// Monte-Carlo mode: one request at a time, each evaluated by one worker
// with the blocked trial-major engine on its pooled SoA arenas.
// items_per_second counts TRIALS (not requests), so this row is directly
// comparable across engine changes.
void BM_ServiceMonteCarloTrials(benchmark::State& state) {
  serve::ServiceOptions options;
  options.workers = std::size_t(state.range(0));
  options.queue_capacity = 4 * kBatch;
  serve::PredictionService service(options);
  service.register_model("sor", bench_spec());

  constexpr std::size_t kTrials = 20'000;
  std::size_t i = 0;
  for (auto _ : state) {
    serve::PredictRequest request;
    request.model_id = "sor";
    request.loads = loads_at(i++);
    request.mode = serve::Mode::kMonteCarlo;
    request.trials = kTrials;
    request.seed = 99;
    const auto result = service.submit(std::move(request)).get();
    if (!result.ok()) state.SkipWithError(result.error.c_str());
    benchmark::DoNotOptimize(result.value);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kTrials));
}
BENCHMARK(BM_ServiceMonteCarloTrials)
    ->UseRealTime()
    ->ArgNames({"workers"})
    ->Arg(1);

}  // namespace

// Records the build type in the JSON context block, then runs the sweep.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", sspred::bench::build_type());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
