// M1 microbenchmarks: the cost of the core primitives — stochastic
// arithmetic, Clark max, normal quantiles, GMM fitting, DES event
// processing, channel round-trips, load-trace integration, an NWS
// publish's forecasts, the SOR sweep kernel — and tree vs compiled
// evaluation of the Platform-2 SOR structural model, once (author
// [+ compile] + evaluate: what a one-shot caller pays, and the
// rebuild-per-request baseline a program cache saves) and repeated
// (steady state). The Monte-Carlo pair on the same model is
// bench_mc_engine's sor-p2 @ 10k gate.
//
// Every row is timed with bench::measure_until (bench/measure.*). A
// sample times a fixed batch of back-to-back calls, sized so one sample
// spans roughly 100 us or more (far above the clock's resolution and
// call overhead), and samples accrue until the CI on the mean is tight.
// Each row prints with its CI and is flagged when the budget ran out
// first. Numbers land in BENCH_compiled_ir.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "measure.hpp"
#include "cluster/platform.hpp"
#include "machine/load_trace.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "nws/service.hpp"
#include "predict/sor_model.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sor/serial.hpp"
#include "stats/distributions.hpp"
#include "stats/gmm.hpp"
#include "stoch/arithmetic.hpp"
#include "stoch/group_ops.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;

/// Hands `value`'s address to an opaque asm statement that may read
/// memory, so the optimizer must materialize it: a call whose result only
/// reaches here is never elided.
template <typename T>
void escape(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

struct Row {
  std::string name;
  std::size_t items = 1;  ///< work items one call does (events, cells)
  bench::Measurement m;   ///< seconds per call
};

/// Times `op` per call, each sample running `batch` calls back to back,
/// and appends the row.
template <typename Op>
void time_calls(std::vector<Row>& rows, std::string name, std::size_t batch,
                std::size_t items, Op&& op) {
  const bench::Measurement m = bench::measure_until([&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count() / static_cast<double>(batch);
  });
  rows.push_back({std::move(name), items, m});
}

/// The row's time per call with its CI, in the unit that fits it.
std::string per_call(const bench::Measurement& m) {
  if (m.mean < 1e-6) return m.summary(1e9, "ns");
  if (m.mean < 1e-3) return m.summary(1e6, "us");
  return m.summary(1e3, "ms");
}

struct SorFixture {
  SorFixture() : model(author()) {
    const std::vector<stoch::StochasticValue> loads(
        cluster::platform2().hosts.size(),
        stoch::StochasticValue(0.62, 0.08));
    env = model.make_env(loads, stoch::StochasticValue(0.525, 0.06));
    slots = std::make_unique<model::ir::SlotEnvironment>(
        model.make_slot_env(loads, stoch::StochasticValue(0.525, 0.06)));
  }

  static predict::AuthoredModel author() {
    sor::SorConfig cfg;
    cfg.n = 600;
    cfg.iterations = 20;
    return predict::author_sor(cluster::platform2(), cfg);
  }

  predict::StructuralModel model;
  model::Environment env;
  std::unique_ptr<model::ir::SlotEnvironment> slots;
};

void emit_json(const std::vector<Row>& rows, double repeated_speedup) {
  std::ofstream out("BENCH_compiled_ir.json");
  out.precision(6);
  out << "{\n"
      << "  \"artifact\": \"bench_micro_ops\",\n"
      << "  \"build_type\": \"" << bench::build_type() << "\",\n"
      << "  \"optimized_build\": "
      << (bench::optimized_build() ? "true" : "false") << ",\n"
      << "  \"compiled_vs_tree_repeated\": " << repeated_speedup << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"items_per_call\": "
        << r.items << ", \"sec_per_call\": " << r.m.mean
        << ", \"ci_sec\": " << r.m.ci_halfwidth
        << ", \"samples\": " << r.m.samples
        << ", \"converged\": " << (r.m.converged ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  bench::banner("M1 microbenchmarks",
                "core primitive costs; tree vs compiled SOR model evaluation");
  std::vector<Row> rows;

  const stoch::StochasticValue x(10.0, 2.0);
  const stoch::StochasticValue y(5.0, 1.0);
  const stoch::StochasticValue small(0.5, 0.05);
  const stoch::StochasticValue near(11.0, 1.5);
  time_calls(rows, "stochastic add, unrelated", 20'000, 1, [&] {
    escape(stoch::add(x, y, stoch::Dependence::kUnrelated));
  });
  time_calls(rows, "stochastic mul, related", 20'000, 1, [&] {
    escape(stoch::mul(x, y, stoch::Dependence::kRelated));
  });
  time_calls(rows, "stochastic div", 5'000, 1, [&] {
    escape(stoch::div(x, small, stoch::Dependence::kUnrelated));
  });
  time_calls(rows, "Clark max", 2'000, 1,
             [&] { escape(stoch::clark_max(x, near)); });
  double p = 0.0001;
  time_calls(rows, "normal quantile", 2'000, 1, [&] {
    escape(stats::normal_quantile(p));
    p += 0.0001;
    if (p >= 1.0) p = 0.0001;
  });

  support::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) {
    xs.push_back(rng.uniform() < 0.5 ? rng.normal(0.3, 0.03)
                                     : rng.normal(0.9, 0.02));
  }
  time_calls(rows, "GMM fit, 1k points, 2 modes", 1, 1,
             [&] { escape(stats::fit_gmm(xs, 2)); });

  time_calls(rows, "DES engine, 10k events", 1, 10'000, [] {
    sim::Engine eng;
    int counter = 0;
    for (int i = 0; i < 10'000; ++i) {
      eng.schedule_at(static_cast<double>(i % 100), [&counter] { ++counter; });
    }
    eng.run();
    escape(counter);
  });
  time_calls(rows, "channel round-trips, 1k", 1, 1'000, [] {
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
  });

  const machine::LoadTrace trace = machine::LoadTrace::generate(
      cluster::platform2_load(), 4'000, 1.0, 3);
  double start = 0.0;
  time_calls(rows, "load-trace finish time", 1'000, 1, [&] {
    escape(trace.finish_time(start, 50.0));
    start += 1.7;
    if (start > 3'000.0) start = 0.0;
  });

  // One NWS publish: a forecast for each of 17 resources (plan_fanin's
  // count), each postcasting all 13 forecasters over its history.
  // Resource r reads the 4,000-sample trace from sample 200 r on.
  constexpr std::size_t kNwsResources = 17;
  const auto loads = trace.samples();
  for (const std::size_t history : {64, 512}) {
    nws::ServiceOptions options;
    options.history_capacity = history;
    nws::Service service(options);
    std::vector<std::string> resources;
    for (std::size_t r = 0; r < kNwsResources; ++r) {
      resources.push_back("cpu/" + std::to_string(r));
      for (std::size_t t = 0; t < history; ++t) {
        service.observe(resources.back(), loads[r * 200 + t]);
      }
    }
    time_calls(rows,
               "NWS forecast, 17 resources, history " + std::to_string(history),
               1, kNwsResources, [&] {
                 for (const std::string& r : resources) {
                   escape(service.forecast(r));
                 }
               });
  }

  for (const std::size_t n : {256, 1024}) {
    sor::SerialSor solver(n);
    time_calls(rows, "SOR red+black sweep, n " + std::to_string(n), 1, n * n,
               [&] {
                 solver.sweep(true);
                 solver.sweep(false);
               });
  }

  const SorFixture fx;
  time_calls(rows, "SOR model: tree author + evaluate once", 10, 1, [&] {
    const predict::AuthoredModel m = SorFixture::author();
    escape(m.expr->evaluate(fx.env));
  });
  time_calls(rows, "SOR model: compile + evaluate once", 10, 1, [&] {
    const predict::StructuralModel m(SorFixture::author());
    escape(m.predict(*fx.slots));
  });
  time_calls(rows, "SOR model: tree evaluate, repeated", 200, 1,
             [&] { escape(fx.model.expr()->evaluate(fx.env)); });
  const double tree_repeated = rows.back().m.mean;
  model::ir::EvalWorkspace ws;
  time_calls(rows, "SOR model: compiled evaluate, repeated", 500, 1,
             [&] { escape(fx.model.program().evaluate(*fx.slots, ws)); });
  const double repeated_speedup = tree_repeated / rows.back().m.mean;

  support::Table t({"op", "time per call", "items/s"});
  std::size_t unconverged = 0;
  for (const Row& r : rows) {
    if (!r.m.converged) ++unconverged;
    t.add_row({r.name, per_call(r.m),
               support::fmt(static_cast<double>(r.items) / r.m.mean / 1e6, 3) +
                   "M"});
  }
  std::printf("%s", t.render().c_str());

  emit_json(rows, repeated_speedup);
  bench::section("summary");
  std::printf("  compiled vs tree, repeated evaluation: %.2fx (%s build)\n",
              repeated_speedup, bench::build_type());
  std::printf("  rows not converged: %zu of %zu\n", unconverged, rows.size());
  std::printf("  (BENCH_compiled_ir.json written)\n");
  return 0;
}
