// Tests for the memory-thrashing model: the mechanism behind the paper's
// "for problem sizes which fit within main memory" boundary (Fig. 9).
#include <gtest/gtest.h>

#include "machine/machine.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"

namespace sspred {
namespace {

TEST(MemoryModel, NoSlowdownInsideMemory) {
  machine::MachineSpec spec = machine::sparc10_spec();
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(0.0), 1.0);
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(spec.memory_elements), 1.0);
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(spec.memory_elements * 0.99), 1.0);
}

TEST(MemoryModel, LinearPenaltyBeyondMemory) {
  machine::MachineSpec spec;
  spec.memory_elements = 1.0e6;
  spec.thrash_slope = 4.0;
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(1.5e6), 3.0);   // 1 + 4*0.5
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(2.0e6), 5.0);   // 1 + 4*1
  EXPECT_DOUBLE_EQ(spec.slowdown_factor(100.0e6), 16.0);  // capped
}

TEST(MemoryModel, MachineElementWorkAppliesFactor) {
  machine::MachineSpec spec = machine::sparc10_spec();
  spec.memory_elements = 1.0e6;
  machine::Machine m(spec, machine::LoadTrace::constant(1.0));
  const double in_core = m.element_work(1'000.0, 0.5e6);
  const double thrashing = m.element_work(1'000.0, 2.0e6);
  EXPECT_DOUBLE_EQ(in_core, m.element_work(1'000.0));
  EXPECT_DOUBLE_EQ(thrashing, 5.0 * in_core);
}

TEST(MemoryModel, SorRunSlowsBeyondMemory) {
  sor::SorConfig cfg;
  cfg.n = 256;
  cfg.iterations = 5;
  cfg.real_numerics = false;

  cluster::PlatformSpec roomy = cluster::dedicated_platform(2);
  sim::Engine e1;
  cluster::Platform p1(e1, roomy, 3);
  const double t_fits = sor::run_distributed_sor(e1, p1, cfg).total_time;

  cluster::PlatformSpec tight = roomy;
  // Strip working set: 2*(130)*(258) ≈ 67k elements; force thrashing.
  for (auto& h : tight.hosts) h.machine.memory_elements = 30'000.0;
  sim::Engine e2;
  cluster::Platform p2(e2, tight, 3);
  const double t_thrash = sor::run_distributed_sor(e2, p2, cfg).total_time;

  EXPECT_GT(t_thrash, 2.0 * t_fits);
}

TEST(MemoryModel, PaperModelDivergesBeyondMemoryUnlessAccounted) {
  // In-memory: the plain model is fine. Beyond memory: the plain model
  // (paper behaviour) underpredicts; account_memory fixes it.
  cluster::PlatformSpec spec = cluster::dedicated_platform(2);
  for (auto& h : spec.hosts) h.machine.memory_elements = 30'000.0;

  sor::SorConfig cfg;
  cfg.n = 256;  // strip working set ~67k elements >> 30k: thrashing
  cfg.iterations = 5;
  cfg.real_numerics = false;

  const std::vector<stoch::StochasticValue> loads(2, {1.0});

  predict::SorModelOptions paper_opts;
  paper_opts.account_memory = false;
  const predict::StructuralModel paper_model(
      predict::author_sor(spec, cfg, paper_opts));
  const double paper_pred =
      paper_model.predict_point(paper_model.make_env(loads, {1.0}));

  predict::SorModelOptions mem_opts;
  mem_opts.account_memory = true;
  const predict::StructuralModel mem_model(
      predict::author_sor(spec, cfg, mem_opts));
  const double mem_pred =
      mem_model.predict_point(mem_model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 7);
  const double actual =
      sor::run_distributed_sor(engine, platform, cfg).total_time;

  EXPECT_LT(paper_pred, 0.6 * actual);             // plain model way under
  EXPECT_NEAR(mem_pred, actual, 0.05 * actual);    // accounted model tracks
}

TEST(MemoryModel, AccountedModelIsNoopInsideMemory) {
  const cluster::PlatformSpec spec = cluster::dedicated_platform(4);
  sor::SorConfig cfg;
  cfg.n = 600;
  const std::vector<stoch::StochasticValue> loads(4, {1.0});
  predict::SorModelOptions on;
  on.account_memory = true;
  predict::SorModelOptions off;
  off.account_memory = false;
  const predict::StructuralModel m_on(predict::author_sor(spec, cfg, on));
  const predict::StructuralModel m_off(predict::author_sor(spec, cfg, off));
  EXPECT_DOUBLE_EQ(m_on.predict_point(m_on.make_env(loads, {1.0})),
                   m_off.predict_point(m_off.make_env(loads, {1.0})));
}

}  // namespace
}  // namespace sspred
