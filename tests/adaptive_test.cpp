// Tests for host-subset selection and adaptive rebalancing.
#include <gtest/gtest.h>

#include <numeric>

#include "predict/host_selection.hpp"
#include "sor/distributed.hpp"
#include "sor/serial.hpp"

namespace sspred {
namespace {

// --- Host-subset selection ----------------------------------------------

std::vector<stoch::StochasticValue> quiet_loads(double slow_host_load) {
  return {stoch::StochasticValue(slow_host_load, 0.05),
          stoch::StochasticValue(0.92, 0.03),
          stoch::StochasticValue(0.92, 0.03),
          stoch::StochasticValue(0.92, 0.03)};
}

TEST(HostSelection, EnumeratesAllSubsets) {
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 400;
  const auto plans = predict::rank_host_subsets(
      spec, cfg, quiet_loads(0.48), {0.525, 0.12},
      predict::PlanMetric::kExpectedTime);
  EXPECT_EQ(plans.size(), 15u);  // 2^4 - 1
  // Sorted best-first.
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].score, plans[i].score);
  }
}

TEST(HostSelection, DropsTheLoadedSlowHost) {
  // A Sparc-2 at 0.48 availability only hurts: the best plan excludes it.
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 1000;
  cfg.iterations = 15;
  const auto best = predict::select_hosts(
      spec, cfg, quiet_loads(0.48), {0.525, 0.12},
      predict::PlanMetric::kExpectedTime);
  for (std::size_t h : best.hosts) {
    EXPECT_NE(h, 0u) << "plan should not include the loaded sparc2-a";
  }
  EXPECT_GE(best.hosts.size(), 2u);  // but parallelism still pays
}

TEST(HostSelection, BestPlanBeatsAllHostsInSimulation) {
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 1000;
  cfg.iterations = 15;
  cfg.real_numerics = false;
  const auto loads = quiet_loads(0.48);
  const auto plans = predict::rank_host_subsets(
      spec, cfg, loads, {0.525, 0.12}, predict::PlanMetric::kExpectedTime);
  const auto& best = plans.front();

  // Run the best plan.
  sor::SorConfig best_cfg = cfg;
  best_cfg.rows_per_rank.assign(best.rows.begin(), best.rows.end());
  sim::Engine e1;
  cluster::Platform p1(e1, best.subset_spec(spec), 7);
  const double t_best =
      sor::run_distributed_sor(e1, p1, best_cfg).total_time;

  // Run the all-hosts plan (uniform strips).
  sim::Engine e2;
  cluster::Platform p2(e2, spec, 7);
  const double t_all = sor::run_distributed_sor(e2, p2, cfg).total_time;

  EXPECT_LT(t_best, t_all);
}

TEST(HostSelection, RiskMetricReordersUncertainPlans) {
  // Host 1 is slightly faster on average but wildly uncertain. Among the
  // single-host plans, expected-time ranks host 1 first while the
  // risk-averse metrics rank the steady host 0 first.
  cluster::PlatformSpec spec = cluster::dedicated_platform(2);
  sor::SorConfig cfg;
  cfg.n = 600;
  cfg.iterations = 10;
  const std::vector<stoch::StochasticValue> loads{
      stoch::StochasticValue(0.60, 0.02), stoch::StochasticValue(0.70, 0.55)};

  auto single_host_order = [&](predict::PlanMetric metric) {
    const auto plans =
        predict::rank_host_subsets(spec, cfg, loads, {1.0}, metric);
    std::vector<std::size_t> singles;
    for (const auto& p : plans) {
      if (p.hosts.size() == 1) singles.push_back(p.hosts[0]);
    }
    return singles;
  };
  EXPECT_EQ(single_host_order(predict::PlanMetric::kExpectedTime),
            (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(single_host_order(predict::PlanMetric::kP95Time),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(single_host_order(predict::PlanMetric::kUpperBound),
            (std::vector<std::size_t>{0, 1}));
}

TEST(HostSelection, SubsetSpecRestrictsHosts) {
  const auto spec = cluster::platform1();
  predict::CandidatePlan plan;
  plan.hosts = {1, 3};
  const auto sub = plan.subset_spec(spec);
  ASSERT_EQ(sub.hosts.size(), 2u);
  EXPECT_EQ(sub.hosts[0].machine.name, "sparc2-b");
  EXPECT_EQ(sub.hosts[1].machine.name, "sparc10");
}

// --- Adaptive rebalancing -----------------------------------------------

TEST(Rebalance, NumericallyIdenticalToStatic) {
  sor::SorConfig cfg;
  cfg.n = 24;
  cfg.iterations = 12;
  cfg.rebalance_interval = 4;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::platform1(), 9);
  const auto result = sor::run_distributed_sor(engine, platform, cfg);
  sor::SerialSor serial(cfg.n);
  serial.iterate(cfg.iterations);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    for (std::size_t j = 0; j < cfg.n; ++j) {
      ASSERT_DOUBLE_EQ(result.solution[i * cfg.n + j], serial.at(i, j))
          << "(" << i << "," << j << ")";
    }
  }
  EXPECT_FALSE(result.rebalances.empty());
}

TEST(Rebalance, MovesRowsTowardFastHosts) {
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 20;
  cfg.rebalance_interval = 5;
  cfg.real_numerics = false;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::platform1(), 11);
  const auto result = sor::run_distributed_sor(engine, platform, cfg);
  ASSERT_FALSE(result.rebalances.empty());
  const auto& final_rows = result.rebalances.back().rows;
  ASSERT_EQ(final_rows.size(), 4u);
  EXPECT_EQ(std::accumulate(final_rows.begin(), final_rows.end(),
                            std::size_t{0}),
            cfg.n);
  // The loaded sparc2-a ends up with far fewer rows than the sparc10.
  EXPECT_LT(final_rows[0] * 3, final_rows[3]);
}

TEST(Rebalance, SpeedsUpImbalancedRuns) {
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 40;
  cfg.real_numerics = false;

  sim::Engine e1;
  cluster::Platform p1(e1, cluster::platform1(), 13);
  const double t_static = sor::run_distributed_sor(e1, p1, cfg).total_time;

  cfg.rebalance_interval = 5;
  sim::Engine e2;
  cluster::Platform p2(e2, cluster::platform1(), 13);
  const double t_adaptive = sor::run_distributed_sor(e2, p2, cfg).total_time;

  EXPECT_LT(t_adaptive, 0.75 * t_static);
}

TEST(Rebalance, NoRebalanceOnDedicatedUniformPlatform) {
  // Identical machines, identical loads: the measured layout matches the
  // uniform one, so no migration happens (but events are still recorded).
  sor::SorConfig cfg;
  cfg.n = 64;
  cfg.iterations = 12;
  cfg.rebalance_interval = 4;
  cfg.real_numerics = false;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(4), 15);
  const auto result = sor::run_distributed_sor(engine, platform, cfg);
  for (const auto& ev : result.rebalances) {
    EXPECT_EQ(ev.rows, (std::vector<std::size_t>{16, 16, 16, 16}));
  }
}

}  // namespace
}  // namespace sspred
