// M1 microbenchmarks (google-benchmark): throughput of the core
// primitives — stochastic arithmetic, Clark max, normal quantiles, GMM
// fitting, DES event processing, channel round-trips, load-trace
// integration, the SOR sweep kernel, and tree-vs-compiled structural
// model evaluation and Monte-Carlo (the tree sampler against the blocked
// engine; bench_mc_engine sweeps that pair across trial counts and model
// sizes). Results are recorded in BENCH_compiled_ir.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "machine/load_trace.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "predict/sor_model.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sor/serial.hpp"
#include "stats/distributions.hpp"
#include "stats/gmm.hpp"
#include "stoch/arithmetic.hpp"
#include "stoch/group_ops.hpp"
#include "support/rng.hpp"

namespace {

using namespace sspred;

void BM_StochasticAddUnrelated(benchmark::State& state) {
  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(5.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stoch::add(x, y, stoch::Dependence::kUnrelated));
  }
}
BENCHMARK(BM_StochasticAddUnrelated);

void BM_StochasticMulRelated(benchmark::State& state) {
  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(5.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stoch::mul(x, y, stoch::Dependence::kRelated));
  }
}
BENCHMARK(BM_StochasticMulRelated);

void BM_StochasticDiv(benchmark::State& state) {
  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(0.5, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stoch::div(x, y, stoch::Dependence::kUnrelated));
  }
}
BENCHMARK(BM_StochasticDiv);

void BM_ClarkMax(benchmark::State& state) {
  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(11.0, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stoch::clark_max(x, y));
  }
}
BENCHMARK(BM_ClarkMax);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.0001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::normal_quantile(p));
    p += 0.0001;
    if (p >= 1.0) p = 0.0001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_GmmFit(benchmark::State& state) {
  support::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) {
    xs.push_back(rng.uniform() < 0.5 ? rng.normal(0.3, 0.03)
                                     : rng.normal(0.9, 0.02));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_gmm(xs, 2));
  }
}
BENCHMARK(BM_GmmFit)->Unit(benchmark::kMillisecond);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      eng.schedule_at(static_cast<double>(i % 100), [&counter] { ++counter; });
    }
    eng.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

void BM_ChannelRoundTrips(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ping(eng);
    sim::Channel<int> pong(eng);
    eng.spawn([](sim::Channel<int>& in, sim::Channel<int>& out) -> sim::Process {
      for (int i = 0; i < 1'000; ++i) {
        out.send(co_await in.recv());
      }
    }(ping, pong));
    eng.spawn([](sim::Channel<int>& out, sim::Channel<int>& in) -> sim::Process {
      for (int i = 0; i < 1'000; ++i) {
        out.send(i);
        (void)co_await in.recv();
      }
    }(ping, pong));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_ChannelRoundTrips)->Unit(benchmark::kMillisecond);

void BM_LoadTraceFinishTime(benchmark::State& state) {
  const machine::LoadTrace trace = machine::LoadTrace::generate(
      cluster::platform2_load(), 4'000, 1.0, 3);
  double start = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.finish_time(start, 50.0));
    start += 1.7;
    if (start > 3'000.0) start = 0.0;
  }
}
BENCHMARK(BM_LoadTraceFinishTime);

void BM_SorSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sor::SerialSor solver(n);
  for (auto _ : state) {
    solver.sweep(true);
    solver.sweep(false);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SorSweep)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- Tree vs compiled IR on the Platform-2 SOR structural model. The
// acceptance bar for the compiled path (ISSUE: "compiled >= 3x faster for
// repeated evaluation") is measured by the *Repeated* pair below.

struct SorFixture {
  SorFixture() : model(make_model()) {
    const std::vector<stoch::StochasticValue> loads(
        cluster::platform2().hosts.size(),
        stoch::StochasticValue(0.62, 0.08));
    env = model.make_env(loads, stoch::StochasticValue(0.525, 0.06));
    slots = std::make_unique<model::ir::SlotEnvironment>(
        model.make_slot_env(loads, stoch::StochasticValue(0.525, 0.06)));
  }

  static predict::SorStructuralModel make_model() {
    sor::SorConfig cfg;
    cfg.n = 600;
    cfg.iterations = 20;
    return predict::SorStructuralModel(cluster::platform2(), cfg);
  }

  predict::SorStructuralModel model;
  model::Environment env;
  std::unique_ptr<model::ir::SlotEnvironment> slots;
};

void BM_ModelTreeEvaluateOnce(benchmark::State& state) {
  // Author + evaluate per iteration: what a caller pays for a one-shot
  // tree prediction.
  const SorFixture fx;
  for (auto _ : state) {
    const auto m = SorFixture::make_model();
    benchmark::DoNotOptimize(m.expr()->evaluate(fx.env));
  }
}
BENCHMARK(BM_ModelTreeEvaluateOnce)->Unit(benchmark::kMicrosecond);

void BM_ModelCompileAndEvaluateOnce(benchmark::State& state) {
  // Author + compile + evaluate per iteration: the compiled path's
  // one-shot cost, including compilation itself.
  const SorFixture fx;
  for (auto _ : state) {
    const auto m = SorFixture::make_model();
    benchmark::DoNotOptimize(m.predict(*fx.slots));
  }
}
BENCHMARK(BM_ModelCompileAndEvaluateOnce)->Unit(benchmark::kMicrosecond);

void BM_ModelTreeEvaluateRepeated(benchmark::State& state) {
  // Steady-state tree evaluation: shared_ptr walk + virtual dispatch +
  // string-keyed parameter lookups per evaluation.
  const SorFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.expr()->evaluate(fx.env));
  }
}
BENCHMARK(BM_ModelTreeEvaluateRepeated);

void BM_ModelCompiledEvaluateRepeated(benchmark::State& state) {
  // Steady-state compiled evaluation with a reused workspace: one linear
  // walk over the flat node buffer, slot-indexed parameters.
  const SorFixture fx;
  model::ir::EvalWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.program().evaluate(*fx.slots, ws));
  }
}
BENCHMARK(BM_ModelCompiledEvaluateRepeated);

void BM_ModelTreeMonteCarlo10k(benchmark::State& state) {
  const SorFixture fx;
  support::Rng rng(17);
  for (auto _ : state) {
    std::vector<double> outcomes;
    outcomes.reserve(10'000);
    model::SampleCache cache;
    for (int t = 0; t < 10'000; ++t) {
      cache.clear();
      outcomes.push_back(fx.model.expr()->sample(fx.env, cache, rng));
    }
    benchmark::DoNotOptimize(stoch::StochasticValue::from_sample(outcomes));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ModelTreeMonteCarlo10k)->Unit(benchmark::kMillisecond);

void BM_ModelCompiledMonteCarlo10k(benchmark::State& state) {
  const SorFixture fx;
  support::Rng rng(17);
  model::ir::EvalWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.model.program().sample_trials(*fx.slots, rng, 10'000, ws));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ModelCompiledMonteCarlo10k)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN plus the build-type context key: google-benchmark's own
// `library_build_type` describes the benchmark library, which CI installs
// once; this key records how THIS code was compiled.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", sspred::bench::build_type());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
