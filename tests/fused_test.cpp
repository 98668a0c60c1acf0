// Tests for the lane-wise evaluation entry points — the IR's
// LaneEnvironment + evaluate_fused / evaluate_point_fused / sample_fused
// (model/ir.hpp) — and for serving staged batches of structure-equal
// requests (serve/service.hpp).
//
// The contract under test is DETERMINISM: every lane-wise entry point must
// be bit-exact per lane against its single-request counterpart, and
// sample_fused must consume each lane's RNG in exactly the standalone
// kBlocked order. The differential tests here drive random expression
// DAGs through both paths and require bit equality, including the
// post-run RNG states. ServeBatched.* pin that batched serving (a staged
// batch of distinct and identical requests, the identical ones coalesced)
// serves exactly what one-at-a-time serving does (and are the TSan stress
// target for concurrent submit during dequeue).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "serve/service.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/rng.hpp"

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::ExtremePolicy;
using stoch::StochasticValue;

/// Random expression DAGs exercising every opcode:
/// sums/products/quotients/extremes/iterates over a small parameter pool
/// with occasional subtree reuse (kRef regions).
ExprPtr random_expr(support::Rng& rng, int depth, std::vector<ExprPtr>& pool) {
  static const std::string kParams[] = {"a", "b", "c"};
  if (depth <= 0 || rng.uniform() < 0.25) {
    switch (rng.uniform_int(4)) {
      case 0:
        return constant(StochasticValue(rng.uniform(0.5, 3.0)));
      case 1:
        return constant(
            StochasticValue(rng.uniform(1.0, 3.0), rng.uniform(0.0, 0.4)));
      case 2:
        if (!pool.empty()) return pool[rng.uniform_int(pool.size())];
        [[fallthrough]];
      default:
        return param(kParams[rng.uniform_int(3)]);
    }
  }
  const auto child = [&] { return random_expr(rng, depth - 1, pool); };
  const auto children = [&](std::size_t lo) {
    std::vector<ExprPtr> out;
    const std::size_t k = lo + rng.uniform_int(3);
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) out.push_back(child());
    return out;
  };
  const Dependence dep =
      rng.uniform() < 0.5 ? Dependence::kUnrelated : Dependence::kRelated;
  static const ExtremePolicy kPolicies[] = {ExtremePolicy::kLargestMean,
                                            ExtremePolicy::kLargestUpper,
                                            ExtremePolicy::kClark};
  ExprPtr e;
  switch (rng.uniform_int(6)) {
    case 0:
      e = sum(children(2), dep);
      break;
    case 1:
      e = prod(children(2), dep);
      break;
    case 2:
      // Denominator mean >= 2 with sd <= 0.1 keeps sampled denominators
      // 20+ sigma from zero: deterministic seeds, deterministic safety.
      e = quotient(child(),
                   constant(StochasticValue(rng.uniform(2.0, 4.0),
                                            rng.uniform(0.0, 0.1))),
                   dep);
      break;
    case 3:
      e = vmax(children(2), kPolicies[rng.uniform_int(3)]);
      break;
    case 4:
      e = vmin(children(2), kPolicies[rng.uniform_int(3)]);
      break;
    default:
      e = iterate(child(), 1 + rng.uniform_int(4), dep);
      break;
  }
  pool.push_back(e);
  return e;
}

void expect_sv_eq(const StochasticValue& a, const StochasticValue& b,
                  const std::string& what) {
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  EXPECT_DOUBLE_EQ(a.halfwidth(), b.halfwidth()) << what;
}

/// Distinct per-lane bindings for every slot of `prog`, deterministic in
/// (lane, generator state). Binds the same values into `fused` lane `k`
/// and the returned standalone environment.
ir::SlotEnvironment bind_lane(const ir::Program& prog,
                              ir::LaneEnvironment& fused, std::size_t k,
                              support::Rng& gen) {
  ir::SlotEnvironment solo = prog.make_environment();
  for (std::uint32_t s = 0; s < prog.slot_count(); ++s) {
    const StochasticValue v(gen.uniform(0.6, 1.4), gen.uniform(0.0, 0.3));
    solo.bind(s, v);
    fused.bind(k, s, v);
  }
  return solo;
}

TEST(FusedEngine, SampleFusedBitMatchesStandaloneBlockedOnRandomDags) {
  constexpr std::size_t kDags = 12;
  constexpr std::size_t kLanes = 5;
  // Multiple full blocks plus a remainder block, so segment widths
  // kBlockTrials and (trials % kBlockTrials) both get exercised.
  const std::size_t trials = 2 * ir::kBlockTrials + 452;
  for (std::size_t d = 0; d < kDags; ++d) {
    support::Rng gen(41000 + d);
    std::vector<ExprPtr> pool;
    const ir::Program prog = compile(*random_expr(gen, 4, pool));
    ir::LaneEnvironment fused = prog.make_lane_environment(kLanes);
    std::vector<ir::SlotEnvironment> solos;
    std::vector<support::Rng> rngs;
    std::vector<support::Rng> solo_rngs;
    for (std::size_t k = 0; k < kLanes; ++k) {
      solos.push_back(bind_lane(prog, fused, k, gen));
      rngs.emplace_back(500 + 17 * k + d);       // distinct per-lane seeds
      solo_rngs.emplace_back(500 + 17 * k + d);  // identical twins
    }
    ir::EvalWorkspace ws;
    std::vector<StochasticValue> out(kLanes);
    prog.sample_fused(fused, rngs, trials, ws, out);
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::string what =
          "dag " + std::to_string(d) + " lane " + std::to_string(k);
      ir::EvalWorkspace solo_ws;
      expect_sv_eq(out[k],
                   prog.sample_trials(solos[k], solo_rngs[k], trials, solo_ws),
                   what);
      // The substream contract: the lane-wise call consumed lane k's RNG
      // exactly as far as the standalone run did.
      EXPECT_DOUBLE_EQ(rngs[k].uniform(), solo_rngs[k].uniform())
          << what << " rng state";
    }
  }
}

TEST(FusedEngine, EvaluateFusedMatchesPerLaneEvaluateOnRandomDags) {
  constexpr std::size_t kDags = 12;
  constexpr std::size_t kLanes = 7;
  for (std::size_t d = 0; d < kDags; ++d) {
    support::Rng gen(52000 + d);
    std::vector<ExprPtr> pool;
    const ir::Program prog = compile(*random_expr(gen, 4, pool));
    ir::LaneEnvironment fused = prog.make_lane_environment(kLanes);
    std::vector<ir::SlotEnvironment> solos;
    for (std::size_t k = 0; k < kLanes; ++k) {
      solos.push_back(bind_lane(prog, fused, k, gen));
    }
    ir::EvalWorkspace ws;
    std::vector<StochasticValue> values(kLanes);
    std::vector<double> points(kLanes);
    prog.evaluate_fused(fused, ws, values);
    prog.evaluate_point_fused(fused, ws, points);
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::string what =
          "dag " + std::to_string(d) + " lane " + std::to_string(k);
      expect_sv_eq(values[k], prog.evaluate(solos[k]), what + " stochastic");
      EXPECT_DOUBLE_EQ(points[k], prog.evaluate_point(solos[k]))
          << what << " point";
    }
  }
}

TEST(FusedEngine, LaneCountIsInvisibleToEachLane) {
  // Lane k's result must not depend on how many other lanes share the
  // sweep: one lane, a few, or many — same bindings + seed, same bits.
  support::Rng gen(63001);
  std::vector<ExprPtr> pool;
  const ir::Program prog = compile(*random_expr(gen, 4, pool));
  const std::size_t trials = ir::kBlockTrials + 77;
  std::vector<StochasticValue> bindings;
  for (std::uint32_t s = 0; s < prog.slot_count(); ++s) {
    bindings.emplace_back(gen.uniform(0.6, 1.4), gen.uniform(0.0, 0.3));
  }
  const auto run_with_lanes = [&](std::size_t lanes) {
    ir::LaneEnvironment env = prog.make_lane_environment(lanes);
    std::vector<support::Rng> rngs;
    for (std::size_t k = 0; k < lanes; ++k) {
      for (std::uint32_t s = 0; s < prog.slot_count(); ++s) {
        // Lane 0 gets the probe bindings; others get shifted ones.
        env.bind(k, s, k == 0 ? bindings[s]
                              : StochasticValue(bindings[s].mean() + 0.1 * k,
                                                bindings[s].halfwidth()));
      }
      rngs.emplace_back(k == 0 ? 909u : 7000 + k);
    }
    ir::EvalWorkspace ws;
    std::vector<StochasticValue> out(lanes);
    prog.sample_fused(env, rngs, trials, ws, out);
    return out[0];
  };
  const StochasticValue one = run_with_lanes(1);
  expect_sv_eq(run_with_lanes(2), one, "2 lanes");
  expect_sv_eq(run_with_lanes(9), one, "9 lanes");
  expect_sv_eq(run_with_lanes(32), one, "32 lanes");
}

TEST(FusedEngine, PurePointProgramShortCircuitsWithoutDraws) {
  const ir::Program prog = compile(*constant(StochasticValue(4.0)));
  ir::LaneEnvironment env = prog.make_lane_environment(3);
  std::vector<support::Rng> rngs{support::Rng(1), support::Rng(2),
                                 support::Rng(3)};
  ir::EvalWorkspace ws;
  std::vector<StochasticValue> out(3);
  prog.sample_fused(env, rngs, 100, ws, out);
  for (const auto& v : out) {
    EXPECT_DOUBLE_EQ(v.mean(), 4.0);
    EXPECT_DOUBLE_EQ(v.halfwidth(), 0.0);
  }
  // No lane consumed any RNG (mirrors sample_trials' kBlocked contract).
  support::Rng fresh(1);
  EXPECT_DOUBLE_EQ(rngs[0].uniform(), fresh.uniform());
}

TEST(FusedEngine, LaneEnvironmentErrorsNameLaneAndSlot) {
  const ir::Program prog = compile(*add(param("a"), param("b")));
  ir::LaneEnvironment env = prog.make_lane_environment(2);
  env.bind(0, prog.slot("a"), StochasticValue(1.0));
  env.bind(0, prog.slot("b"), StochasticValue(1.0));
  env.bind(1, prog.slot("a"), StochasticValue(1.0));
  // lane 1 slot "b" left unbound
  ir::EvalWorkspace ws;
  std::vector<StochasticValue> out(2);
  try {
    prog.evaluate_fused(env, ws, out);
    FAIL() << "expected an unbound-slot error";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lane 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'b'"), std::string::npos) << msg;
    // Lane 1's own bindings are listed, not lane 0's.
    EXPECT_NE(msg.find("bound: a"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("bound: a, b"), std::string::npos) << msg;
  }
  EXPECT_THROW(env.bind(2, 0, StochasticValue(1.0)), std::exception);
}

}  // namespace
}  // namespace sspred::model

namespace sspred::serve {
namespace {

using stoch::StochasticValue;

ModelSpec small_spec(std::size_t n = 200, std::size_t hosts = 2) {
  ModelSpec spec;
  spec.app = ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

/// Distinct-bindings request `i` against model `id` (same structure,
/// different load vector).
PredictRequest distinct_request(const std::string& id, std::size_t hosts,
                                std::size_t i, Mode mode = Mode::kStochastic) {
  PredictRequest request;
  request.model_id = id;
  request.mode = mode;
  for (std::size_t h = 0; h < hosts; ++h) {
    request.loads.emplace_back(0.5 + 0.01 * double(i) + 0.05 * double(h),
                               0.05 + 0.002 * double(i));
  }
  if (mode == Mode::kMonteCarlo) {
    request.trials = 600;
    request.seed = 100 + i;
  }
  return request;
}

void expect_result_eq(const PredictResult& a, const PredictResult& b,
                      const std::string& what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.error;
  ASSERT_TRUE(b.ok()) << what << ": " << b.error;
  EXPECT_DOUBLE_EQ(a.value.mean(), b.value.mean()) << what;
  EXPECT_DOUBLE_EQ(a.value.halfwidth(), b.value.halfwidth()) << what;
  EXPECT_DOUBLE_EQ(a.point, b.point) << what;
}

TEST(ServeBatched, BatchedResultsBitMatchOneAtATimeServing) {
  // A staged batch of distinct-bindings requests serves exactly what
  // caller-runs serve(), which never coalesces, serves one at a time.
  for (const Mode mode : {Mode::kStochastic, Mode::kPoint, Mode::kMonteCarlo}) {
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(options);
    service.pause();
    service.register_model("sor", small_spec());

    constexpr std::size_t kRequests = 24;
    std::vector<std::future<PredictResult>> staged;
    for (std::size_t i = 0; i < kRequests; ++i) {
      staged.push_back(service.submit(distinct_request("sor", 2, i, mode)));
    }
    service.resume();
    for (std::size_t i = 0; i < kRequests; ++i) {
      expect_result_eq(staged[i].get(),
                       service.serve(distinct_request("sor", 2, i, mode)),
                       "mode " + std::to_string(int(mode)) + " request " +
                           std::to_string(i));
    }
  }
}

TEST(ServeBatched, ResultsAreInvariantToWorkerCount) {
  const auto run = [](std::size_t workers) {
    ServiceOptions options;
    options.workers = workers;
    PredictionService service(options);
    service.pause();
    service.register_model("sor", small_spec());
    std::vector<std::future<PredictResult>> futures;
    for (std::size_t i = 0; i < 30; ++i) {
      futures.push_back(
          service.submit(distinct_request("sor", 2, i, Mode::kMonteCarlo)));
    }
    service.resume();
    std::vector<StochasticValue> values;
    for (auto& f : futures) {
      auto r = f.get();
      EXPECT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.batch_size, 1u);  // distinct bindings never coalesce
      values.push_back(r.value);
    }
    return values;
  };
  const auto baseline = run(1);
  for (const std::size_t workers : {4, 1, 3}) {
    const auto values = run(workers);
    ASSERT_EQ(values.size(), baseline.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_DOUBLE_EQ(values[i].mean(), baseline[i].mean())
          << workers << " workers, request " << i;
      EXPECT_DOUBLE_EQ(values[i].halfwidth(), baseline[i].halfwidth())
          << workers << " workers, request " << i;
    }
  }
}

TEST(ServeBatched, IdenticalRequestsCoalesceAndStructureEqualOnesRunAlone) {
  ServiceOptions options;
  options.workers = 1;  // one dequeue scan sees the whole staged queue
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  service.register_model("sor-alias", small_spec());  // same structure

  const auto a = distinct_request("sor", 2, 0);
  const auto b = distinct_request("sor", 2, 1);
  const auto c = distinct_request("sor-alias", 2, 2);
  std::vector<std::future<PredictResult>> fa, fb, fc;
  for (int i = 0; i < 3; ++i) fa.push_back(service.submit(a));
  for (int i = 0; i < 2; ++i) fb.push_back(service.submit(b));
  fc.push_back(service.submit(c));
  service.resume();
  service.drain();

  // Identical requests collapsed onto one evaluation (result fanned out);
  // distinct bindings and the structure-equal alias evaluated alone.
  for (auto& f : fa) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 3u);
  }
  for (auto& f : fb) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 2u);
  }
  EXPECT_EQ(fc[0].get().batch_size, 1u);
  EXPECT_EQ(service.metrics().counter("requests_coalesced").value(), 3u);
}

TEST(ServeBatched, BindingErrorIsIsolatedFromItsBatchNeighbours) {
  // A request whose bindings cannot resolve (wrong load count) must get
  // its structured error while the requests staged beside it succeed.
  ServiceOptions options;
  options.workers = 1;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  auto good0 = service.submit(distinct_request("sor", 2, 0));
  PredictRequest bad = distinct_request("sor", 2, 1);
  bad.loads.pop_back();  // wrong arity -> binding error
  auto failed = service.submit(std::move(bad));
  auto good1 = service.submit(distinct_request("sor", 2, 2));
  service.resume();

  const auto r0 = good0.get();
  const auto rb = failed.get();
  const auto r1 = good1.get();
  EXPECT_TRUE(r0.ok()) << r0.error;
  EXPECT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(rb.status, PredictResult::Status::kError);
  EXPECT_NE(rb.error.find("load bindings"), std::string::npos) << rb.error;
  // And the results bit-match caller-runs serve(), which evaluates every
  // request alone.
  expect_result_eq(r0, service.serve(distinct_request("sor", 2, 0)),
                   "request 0");
  expect_result_eq(r1, service.serve(distinct_request("sor", 2, 2)),
                   "request 2");
}

TEST(ServeBatched, ConcurrentSubmittersDuringBatchedDequeueAreRaceFree) {
  // TSan stress: submitters pushing a mix of identical and distinct
  // structure-equal requests race the workers' dequeue scans. Every
  // future must resolve.
  ServiceOptions options;
  options.workers = 4;
  PredictionService service(options);
  service.register_model("sor", small_spec());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 60;
  std::atomic<std::size_t> resolved{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Every third request repeats bindings (coalescable); the rest
        // are distinct. Alternate modes.
        const std::size_t variant = (i % 3 == 0) ? 0 : t * kPerThread + i;
        const Mode mode =
            i % 4 == 0 ? Mode::kMonteCarlo : Mode::kStochastic;
        auto result = service.submit(distinct_request("sor", 2, variant, mode));
        const auto r = result.get();
        EXPECT_TRUE(r.ok() ||
                    r.status == PredictResult::Status::kRejected)
            << r.error;
        resolved.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace sspred::serve
