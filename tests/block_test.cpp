// Tests for the 2-D block-decomposed SOR and its structural model.
#include <gtest/gtest.h>

#include "predict/sor_model.hpp"
#include "sor/block.hpp"
#include "sor/serial.hpp"
#include "support/error.hpp"

namespace sspred::sor {
namespace {

TEST(BlockExtent, SplitsCoverExactly) {
  for (const std::size_t n : {10, 13, 100}) {
    for (const std::size_t parts : {1, 2, 3, 4, 7}) {
      if (parts > n) continue;
      std::size_t total = 0;
      for (std::size_t i = 0; i < parts; ++i) {
        EXPECT_EQ(block_offset(n, parts, i), total);
        total += block_extent(n, parts, i);
      }
      EXPECT_EQ(total, n);
    }
  }
}

struct GridCase {
  std::size_t pr;
  std::size_t pc;
};

class BlockEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(BlockEquivalence, MatchesSerialBitwise) {
  const auto [pr, pc] = GetParam();
  BlockConfig cfg;
  cfg.n = 22;
  cfg.iterations = 9;
  cfg.pr = pr;
  cfg.pc = pc;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(pr * pc), 3);
  const SorResult result = run_distributed_block_sor(engine, platform, cfg);
  ASSERT_EQ(result.solution.size(), cfg.n * cfg.n);

  SerialSor serial(cfg.n);
  serial.iterate(cfg.iterations);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    for (std::size_t j = 0; j < cfg.n; ++j) {
      ASSERT_DOUBLE_EQ(result.solution[i * cfg.n + j], serial.at(i, j))
          << pr << "x" << pc << " at (" << i << "," << j << ")";
    }
  }
  EXPECT_NEAR(result.residual, serial.residual_norm(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grids, BlockEquivalence,
                         ::testing::Values(GridCase{1, 1}, GridCase{2, 2},
                                           GridCase{1, 4}, GridCase{4, 1},
                                           GridCase{2, 3}, GridCase{3, 2}));

TEST(Block, ValidationErrors) {
  BlockConfig cfg;
  cfg.pr = 2;
  cfg.pc = 3;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::dedicated_platform(4), 1);
  EXPECT_THROW((void)run_distributed_block_sor(engine, platform, cfg),
               support::Error);
}

TEST(Block, LessCommThanStripsOnManyHosts) {
  // 8 hosts: strips cut the grid 7 times; a 2x4 block grid cuts it 4 times
  // (1 horizontal + 3 vertical) — less boundary volume, faster exchanges.
  const std::size_t n = 256;
  const std::size_t iters = 8;

  sim::Engine e1;
  cluster::Platform p1(e1, cluster::dedicated_platform(8), 5);
  SorConfig strips;
  strips.n = n;
  strips.iterations = iters;
  strips.real_numerics = false;
  const auto rs = run_distributed_sor(e1, p1, strips);

  sim::Engine e2;
  cluster::Platform p2(e2, cluster::dedicated_platform(8), 5);
  BlockConfig blocks;
  blocks.n = n;
  blocks.iterations = iters;
  blocks.pr = 2;
  blocks.pc = 4;
  blocks.real_numerics = false;
  const auto rb = run_distributed_block_sor(e2, p2, blocks);

  auto total_comm = [](const SorResult& r) {
    double acc = 0.0;
    for (const auto& rank : r.ranks) {
      for (const auto& t : rank.iterations) acc += t.red_comm + t.black_comm;
    }
    return acc;
  };
  EXPECT_LT(total_comm(rb), 0.8 * total_comm(rs));
  EXPECT_LT(rb.total_time, rs.total_time);
}

TEST(BlockModel, DedicatedPredictionTracksRun) {
  const auto spec = cluster::dedicated_platform(4);
  BlockConfig cfg;
  cfg.n = 600;
  cfg.iterations = 15;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.real_numerics = false;

  const predict::StructuralModel model(
      predict::author_block_sor(spec, cfg.n, cfg.iterations, cfg.pr, cfg.pc));
  const std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(1.0));
  const double predicted = model.predict_point(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 7);
  const double actual =
      run_distributed_block_sor(engine, platform, cfg).total_time;
  EXPECT_NEAR(predicted, actual, 0.05 * actual);
}

TEST(BlockModel, StochasticPredictionCapturesLoadedRun) {
  cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  for (auto& h : spec.hosts) {
    h.load = cluster::platform1_load(/*center_only=*/true);
  }
  BlockConfig cfg;
  cfg.n = 400;
  cfg.iterations = 12;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.real_numerics = false;

  const predict::StructuralModel model(
      predict::author_block_sor(spec, cfg.n, cfg.iterations, cfg.pr, cfg.pc));
  const std::vector<stoch::StochasticValue> loads(
      4, stoch::StochasticValue(0.48, 0.06));
  const auto predicted = model.predict(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 9);
  const double actual =
      run_distributed_block_sor(engine, platform, cfg).total_time;
  EXPECT_TRUE(predicted.contains(actual))
      << predicted.to_string() << " vs " << actual;
}

}  // namespace
}  // namespace sspred::sor
