// Tests for the Jacobi application (serial + distributed) and its
// structural model — the "second application" demonstrating generality.
#include <gtest/gtest.h>

#include "predict/sor_model.hpp"
#include "sor/jacobi.hpp"

namespace sspred::sor {
namespace {

TEST(SerialJacobi, ConvergesToAnalyticSolution) {
  SerialJacobi solver(25);
  solver.iterate(1'500);  // Jacobi converges slowly
  EXPECT_LT(solver.solution_error(), 5e-3);
  EXPECT_LT(solver.residual_norm(), 1e-3);
}

TEST(SerialJacobi, ResidualShrinks) {
  SerialJacobi solver(20);
  solver.iterate(10);
  const double early = solver.residual_norm();
  solver.iterate(200);
  EXPECT_LT(solver.residual_norm(), 0.5 * early);
}

TEST(DistributedJacobi, MatchesSerialBitwise) {
  JacobiConfig cfg;
  cfg.n = 24;
  cfg.iterations = 30;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(3), 5);
  const JacobiResult result =
      run_distributed_jacobi(engine, platform, cfg);
  ASSERT_EQ(result.solution.size(), cfg.n * cfg.n);

  SerialJacobi serial(cfg.n);
  serial.iterate(cfg.iterations);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    for (std::size_t j = 0; j < cfg.n; ++j) {
      EXPECT_DOUBLE_EQ(result.solution[i * cfg.n + j], serial.at(i, j));
    }
  }
  EXPECT_NEAR(result.solution_error, serial.solution_error(), 1e-12);
}

class JacobiRankSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JacobiRankSweep, AnyRankCountMatchesSerial) {
  JacobiConfig cfg;
  cfg.n = 16;
  cfg.iterations = 12;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(GetParam()),
                             7);
  const JacobiResult result =
      run_distributed_jacobi(engine, platform, cfg);
  SerialJacobi serial(cfg.n);
  serial.iterate(cfg.iterations);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    for (std::size_t j = 0; j < cfg.n; ++j) {
      ASSERT_DOUBLE_EQ(result.solution[i * cfg.n + j], serial.at(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, JacobiRankSweep, ::testing::Values(1, 2, 4));

TEST(DistributedJacobi, RecordsTimings) {
  JacobiConfig cfg;
  cfg.n = 64;
  cfg.iterations = 8;
  cfg.real_numerics = false;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(4), 9);
  const JacobiResult result =
      run_distributed_jacobi(engine, platform, cfg);
  EXPECT_GT(result.total_time, 0.0);
  ASSERT_EQ(result.rank_timings.size(), 4u);
  for (const auto& rank : result.rank_timings) {
    ASSERT_EQ(rank.size(), cfg.iterations);
    for (const auto& [comp, comm] : rank) {
      EXPECT_GT(comp, 0.0);
      EXPECT_GE(comm, 0.0);
    }
  }
}

TEST(JacobiModel, DedicatedPredictionTracksSimulation) {
  const auto spec = cluster::dedicated_platform(4);
  JacobiConfig cfg;
  cfg.n = 600;
  cfg.iterations = 20;
  cfg.real_numerics = false;

  const predict::StructuralModel model(
      predict::author_jacobi(spec, cfg.n, cfg.iterations));
  const std::vector<stoch::StochasticValue> loads(4, {1.0});
  const double predicted =
      model.predict_point(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 13);
  const double actual =
      run_distributed_jacobi(engine, platform, cfg).total_time;
  EXPECT_NEAR(predicted, actual, 0.05 * actual);
}

TEST(JacobiModel, StochasticLoadGivesStochasticPrediction) {
  const auto spec = cluster::platform1();
  const predict::StructuralModel model(predict::author_jacobi(spec, 400, 10));
  std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(0.5, 0.1));
  const auto pred = model.predict(model.make_env(loads, {0.525, 0.12}));
  EXPECT_GT(pred.halfwidth(), 0.0);
  EXPECT_GT(pred.mean(), 0.0);
}

TEST(JacobiVsSor, JacobiHasLighterCommPerIteration) {
  // Same grid and iterations: SOR exchanges twice per iteration, Jacobi
  // once — on a dedicated platform Jacobi's per-iteration comm is lower.
  const std::size_t n = 256;
  const std::size_t iters = 10;

  sim::Engine e1;
  cluster::Platform p1(e1, cluster::dedicated_platform(4), 3);
  SorConfig scfg;
  scfg.n = n;
  scfg.iterations = iters;
  scfg.real_numerics = false;
  const SorResult sres = run_distributed_sor(e1, p1, scfg);

  sim::Engine e2;
  cluster::Platform p2(e2, cluster::dedicated_platform(4), 3);
  JacobiConfig jcfg;
  jcfg.n = n;
  jcfg.iterations = iters;
  jcfg.real_numerics = false;
  const JacobiResult jres = run_distributed_jacobi(e2, p2, jcfg);

  double sor_comm = 0.0;
  for (const auto& t : sres.ranks[1].iterations) {
    sor_comm += t.red_comm + t.black_comm;
  }
  double jac_comm = 0.0;
  for (const auto& [comp, comm] : jres.rank_timings[1]) jac_comm += comm;
  EXPECT_LT(jac_comm, 0.75 * sor_comm);
}

}  // namespace
}  // namespace sspred::sor
