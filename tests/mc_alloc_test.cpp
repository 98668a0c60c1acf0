// Allocation-freedom of the warm Monte-Carlo path (own binary: it
// overrides global operator new to count every heap allocation in the
// process).
//
// The serving layer pools one EvalWorkspace per worker (WorkerState in
// serve/shard.hpp) precisely so that the blocked engine's SoA arenas —
// lane_values and lane_saved — are paid for once per worker and reused
// across requests. These tests pin the contract that makes the pooling
// worth it: after a warmup call has sized the arenas, sample_trials() /
// sample_into() on the same workspace must not allocate at all, and a
// workspace that only samples never sizes the deterministic walks'
// buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "stats/sequential.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

// The replaced operator new hands out malloc'd memory that the replaced
// operator delete frees; GCC's heuristic pairs call sites across the TU
// and flags the malloc/free crossing, but the pairing is the point here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting overrides for every replaceable allocation signature a
// libstdc++ container can reach. Deletes stay uncounted: freeing reused
// capacity is fine, acquiring new memory on the hot path is not.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::StochasticValue;

TEST(McEngineAlloc, WarmBlockedSamplingIsAllocationFree) {
  // A model exercising every allocation-prone engine feature: stochastic
  // constants, an unrelated iterate (body-slot save/restore rows) and a
  // shared subtree (kRef region save/restore rows).
  const auto shared = mul(param("a"), constant(StochasticValue(2.0, 0.5)));
  const auto body = add(shared, mul(param("b"), shared));
  const auto expr = iterate(body, 6, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0, 0.3));
  env.bind(prog.slot("b"), StochasticValue(0.8, 0.2));

  support::Rng rng(2026);
  ir::EvalWorkspace ws;
  constexpr std::size_t kTrials = 3000;  // multiple blocks per call

  // Warmup sizes every arena (lane rows, slot rows, save stack, results).
  (void)prog.sample_trials(env, rng, kTrials, ws);

  const std::uint64_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < 5; ++i) {
    acc += prog.sample_trials(env, rng, kTrials, ws).mean();
  }
  std::vector<double> out(kTrials);  // allocated outside the hot section
  const std::uint64_t before_into = g_allocations.load();
  prog.sample_into(env, rng, out, ws);
  const std::uint64_t after = g_allocations.load();

  EXPECT_EQ(before_into - before, 1u)  // only `out` itself
      << "warm sample_trials allocated";
  EXPECT_EQ(after, before_into) << "warm sample_into allocated";
  EXPECT_GT(acc, 0.0);
}

TEST(McEngineAlloc, WarmFusedSamplingIsAllocationFree) {
  // Same allocation-prone model as above, evaluated lane-wise: once a
  // warmup call has sized the workspace and the LaneEnvironment,
  // rebinding lanes and re-running sample_fused / evaluate_fused /
  // evaluate_point_fused must not allocate.
  const auto shared = mul(param("a"), constant(StochasticValue(2.0, 0.5)));
  const auto body = add(shared, mul(param("b"), shared));
  const auto expr = iterate(body, 6, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);

  constexpr std::size_t kLanes = 6;
  constexpr std::size_t kTrials = 3000;  // multiple blocks per sweep
  ir::LaneEnvironment env = prog.make_lane_environment(kLanes);
  std::vector<support::Rng> rngs;
  std::vector<StochasticValue> out(kLanes);
  std::vector<double> points(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) rngs.emplace_back(100 + k);

  const auto bind_all = [&] {
    for (std::size_t k = 0; k < kLanes; ++k) {
      env.bind(k, prog.slot("a"), StochasticValue(1.0 + 0.1 * k, 0.3));
      env.bind(k, prog.slot("b"), StochasticValue(0.8, 0.2 + 0.01 * k));
    }
  };
  bind_all();
  ir::EvalWorkspace ws;
  // Warmup sizes every arena each entry point touches.
  prog.sample_fused(env, rngs, kTrials, ws, out);
  prog.evaluate_fused(env, ws, out);
  prog.evaluate_point_fused(env, ws, points);

  const std::uint64_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < 5; ++i) {
    env.reset(prog, kLanes);  // per-request reset reuses capacity
    bind_all();
    prog.sample_fused(env, rngs, kTrials, ws, out);
    prog.evaluate_fused(env, ws, out);
    prog.evaluate_point_fused(env, ws, points);
    acc += out[0].mean() + points[0];
  }
  EXPECT_EQ(g_allocations.load(), before) << "warm lane-wise path allocated";
  EXPECT_GT(acc, 0.0);
}

TEST(McEngineAlloc, WarmAdaptiveSamplingIsAllocationFree) {
  // Precision-stopped sampling, solo and over lanes whose rules retire
  // them at different blocks: once a warmup call of each has sized the
  // workspace, repeating the same calls must not allocate.
  const auto shared = mul(param("a"), constant(StochasticValue(2.0, 0.5)));
  const auto body = add(shared, mul(param("b"), shared));
  const auto expr = iterate(body, 6, Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);

  const std::vector<stats::StopRule> rules = {
      stats::StopRule::relative_width(0.10, 20'000, 64),  // retires early
      stats::StopRule::fixed(600),
      stats::StopRule::absolute(1e-9, 3'000, 64),  // runs to its clamp
      stats::StopRule::relative_width(0.02, 20'000, 128),
  };
  const std::size_t lanes = rules.size();
  ir::LaneEnvironment lane_env = prog.make_lane_environment(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    lane_env.bind(k, prog.slot("a"), StochasticValue(1.0 + 0.1 * k, 0.3));
    lane_env.bind(k, prog.slot("b"), StochasticValue(0.8, 0.2 + 0.01 * k));
  }
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0, 0.3));
  env.bind(prog.slot("b"), StochasticValue(0.8, 0.2));
  std::vector<support::Rng> rngs;
  for (std::size_t k = 0; k < lanes; ++k) rngs.emplace_back(300 + k);
  std::vector<ir::AdaptiveResult> out(lanes);
  ir::EvalWorkspace ws;

  // Reseeding repeats each warmup call's trial counts exactly.
  const auto run = [&] {
    for (std::size_t k = 0; k < lanes; ++k) rngs[k] = support::Rng(300 + k);
    support::Rng rng(11);
    double acc = 0.0;
    for (const stats::StopRule& rule : rules) {
      acc += prog.sample_adaptive(env, rng, rule, ws).value.mean();
    }
    prog.sample_adaptive_fused(lane_env, rngs, rules, ws, out);
    return acc + out[0].value.mean();
  };
  (void)run();
  const std::uint64_t before = g_allocations.load();
  double acc = 0.0;
  for (int i = 0; i < 5; ++i) acc += run();
  EXPECT_EQ(g_allocations.load(), before) << "warm adaptive path allocated";
  EXPECT_GT(acc, 0.0);
  // The lanes really retired at different blocks.
  EXPECT_LT(out[0].trials, out[3].trials);
  EXPECT_EQ(out[1].trials, 600u);
  EXPECT_EQ(out[2].trials, 3'000u);
}

TEST(McEngineAlloc, MonteCarloOnlyWorkspaceKeepsTheWalkBuffersEmpty) {
  // The blocked engine reads neither evaluate()'s per-node values nor
  // evaluate_point()'s, so every Monte-Carlo entry point leaves both
  // unallocated.
  const auto shared = mul(param("a"), constant(StochasticValue(2.0, 0.5)));
  const auto expr = iterate(add(shared, mul(param("b"), shared)), 6,
                            Dependence::kUnrelated);
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0, 0.3));
  env.bind(prog.slot("b"), StochasticValue(0.8, 0.2));

  support::Rng rng(5);
  ir::EvalWorkspace ws;
  std::vector<double> out(3000);
  prog.sample_into(env, rng, out, ws);
  (void)prog.sample_trials(env, rng, 3000, ws);
  (void)prog.sample_adaptive(
      env, rng, stats::StopRule::relative_width(0.02, 20'000, 64), ws);
  EXPECT_EQ(ws.values.capacity(), 0u);
  EXPECT_EQ(ws.point_values.capacity(), 0u);
  EXPECT_GT(ws.lane_values.size(), 0u);
}

TEST(McEngineAlloc, WarmStochasticEvaluateIsAllocationFree) {
  // The §2.3 walk on a warm workspace: sums, products, a quotient and an
  // iterate under a group max or min, for every policy. Clark's min is
  // -max of the negated operands, which must not need a buffer either.
  using stoch::ExtremePolicy;
  const auto a = param("a"), b = param("b"), c = param("c");
  const std::vector<ExprPtr> items = {
      add(a, mul(b, c)), quotient(a, c, Dependence::kRelated),
      iterate(b, 4, Dependence::kUnrelated)};
  for (const ExtremePolicy policy :
       {ExtremePolicy::kLargestMean, ExtremePolicy::kLargestUpper,
        ExtremePolicy::kClark}) {
    for (const bool is_max : {true, false}) {
      const ExprPtr expr = is_max ? vmax(items, policy) : vmin(items, policy);
      const ir::Program prog = compile(*expr);
      ir::SlotEnvironment env = prog.make_environment();
      env.bind(prog.slot("a"), StochasticValue(3.0, 0.4));
      env.bind(prog.slot("b"), StochasticValue(0.8, 0.2));
      env.bind(prog.slot("c"), StochasticValue(2.5, 0.3));
      ir::EvalWorkspace ws;
      (void)prog.evaluate(env, ws);  // warmup sizes ws.values

      const std::uint64_t before = g_allocations.load();
      double acc = 0.0;
      for (int i = 0; i < 10; ++i) acc += prog.evaluate(env, ws).mean();
      EXPECT_EQ(g_allocations.load() - before, 0u)
          << (is_max ? "max" : "min") << " under policy "
          << static_cast<int>(policy);
      EXPECT_GT(acc, 0.0);
    }
  }
}

TEST(McEngineAlloc, WorkspaceReuseAcrossTrialCountsOnlyGrows) {
  const auto expr = add(param("x"), constant(StochasticValue(1.0, 0.2)));
  const ir::Program prog = compile(*expr);
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("x"), StochasticValue(1.0, 0.4));

  support::Rng rng(7);
  ir::EvalWorkspace ws;
  // Warm with the largest trial count the loop will see...
  (void)prog.sample_trials(env, rng, 4096, ws);
  const std::uint64_t before = g_allocations.load();
  // ...then every smaller request fits in the retained capacity.
  for (const std::size_t trials : {64u, 1000u, 2048u, 4096u}) {
    (void)prog.sample_trials(env, rng, trials, ws);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

}  // namespace
}  // namespace sspred::model
