// Failure injection and persistence: what happens when production reality
// departs from the forecast, and round-tripping measurement state.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "machine/load_trace.hpp"
#include "model/expr.hpp"
#include "nws/service.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"
#include "support/error.hpp"

namespace sspred {
namespace {

// --- Load freezes -----------------------------------------------------------

TEST(Freeze, CollapsesAvailabilityInWindowOnly) {
  const machine::LoadTrace base(1.0, std::vector<double>(100, 0.8));
  const auto frozen = base.with_freeze(20.0, 40.0, 0.05);
  EXPECT_DOUBLE_EQ(frozen.at(10.0), 0.8);
  EXPECT_DOUBLE_EQ(frozen.at(25.0), 0.05);
  EXPECT_DOUBLE_EQ(frozen.at(39.9), 0.05);
  EXPECT_DOUBLE_EQ(frozen.at(45.0), 0.8);
  // The original is untouched.
  EXPECT_DOUBLE_EQ(base.at(25.0), 0.8);
}

TEST(Freeze, ValidationErrors) {
  const machine::LoadTrace base(1.0, std::vector<double>(10, 0.8));
  EXPECT_THROW((void)base.with_freeze(5.0, 5.0), support::Error);
  EXPECT_THROW((void)base.with_freeze(5.0, 3.0), support::Error);
  EXPECT_THROW((void)base.with_freeze(1.0, 2.0, 0.0), support::Error);
}

TEST(Freeze, RunSurvivesButPredictionMissesUnforecastSeizure) {
  // An unforecast mid-run machine seizure: the run completes (slowly) and
  // lands far outside the stochastic interval — the honest failure mode
  // of any forecast-based prediction, worth demonstrating explicitly.
  cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 12;
  cfg.real_numerics = false;

  const predict::StructuralModel model(predict::author_sor(spec, cfg));
  const std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(0.995, 0.01));
  const auto predicted = model.predict(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 3);
  // Freeze host 2 for a stretch in the middle of the run.
  platform.machine(2).set_trace(
      platform.machine(2).trace().with_freeze(0.3, 1e9, 0.03));
  const auto result = sor::run_distributed_sor(engine, platform, cfg);

  EXPECT_GT(result.total_time, 1.5 * predicted.upper());  // way outside
  EXPECT_FALSE(predicted.contains(result.total_time));
  // The score machinery reports it rather than crashing.
  const double miss = predicted.out_of_range_distance(result.total_time);
  EXPECT_GT(miss, 0.0);
}

TEST(Freeze, AdaptiveRebalancingRoutesAroundSeizure) {
  // With rebalancing on, the frozen host sheds its rows and the run
  // recovers much of the loss.
  cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 40;
  cfg.real_numerics = false;

  auto run_with_freeze = [&](std::size_t rebalance_interval) {
    sor::SorConfig c = cfg;
    c.rebalance_interval = rebalance_interval;
    sim::Engine engine;
    cluster::Platform platform(engine, spec, 5);
    platform.machine(1).set_trace(
        platform.machine(1).trace().with_freeze(0.0, 1e9, 0.05));
    return sor::run_distributed_sor(engine, platform, c).total_time;
  };
  const double t_static = run_with_freeze(0);
  const double t_adaptive = run_with_freeze(5);
  EXPECT_LT(t_adaptive, 0.5 * t_static);
}

// --- Service persistence ------------------------------------------------------

TEST(ServicePersistence, SaveLoadRoundTrip) {
  nws::Service a;
  for (int i = 0; i < 60; ++i) {
    a.observe("cpu/x", 0.4 + 0.001 * i);
    a.observe("net/ethernet", 0.5);
  }
  const std::string path = "/tmp/sspred_service_test.csv";
  a.save_csv(path);

  nws::Service b;
  b.load_csv(path);
  EXPECT_EQ(b.history_size("cpu/x"), 60u);
  EXPECT_EQ(b.history_size("net/ethernet"), 60u);
  EXPECT_EQ(b.resources().size(), 2u);
  // Forecasts agree after the round trip.
  EXPECT_NEAR(b.forecast("cpu/x").value, a.forecast("cpu/x").value, 1e-9);
  std::filesystem::remove(path);
}

TEST(ServicePersistence, LoadRejectsBadHeader) {
  const std::string path = "/tmp/sspred_service_bad.csv";
  {
    std::ofstream out(path);
    out << "nope\n";
  }
  nws::Service s;
  EXPECT_THROW(s.load_csv(path), support::Error);
  std::filesystem::remove(path);
}

// --- Expression operator sugar ----------------------------------------------

TEST(ExprSugar, OperatorsMatchNamedBuilders) {
  model::Environment env;
  env.bind("a", stoch::StochasticValue(6.0, 1.0));
  env.bind("b", stoch::StochasticValue(2.0, 0.2));
  const auto sugar =
      (model::param("a") + model::param("b")) / model::param("b");
  const auto named = model::quotient(
      model::add(model::param("a"), model::param("b")), model::param("b"));
  EXPECT_EQ(sugar->evaluate(env), named->evaluate(env));
  EXPECT_DOUBLE_EQ(sugar->evaluate_point(env), 4.0);

  const auto product = model::param("a") * model::param("b");
  EXPECT_DOUBLE_EQ(product->evaluate_point(env), 12.0);
}

}  // namespace
}  // namespace sspred
