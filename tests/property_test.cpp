// Cross-module property tests: algebraic laws of the stochastic calculus,
// ordering/conservation invariants of the DES and fabrics, randomized
// stress sweeps, plus the new breakdown/Wilson utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "net/ethernet.hpp"
#include "net/switched.hpp"
#include "predict/sor_model.hpp"
#include "sim/engine.hpp"
#include "stoch/arithmetic.hpp"
#include "stoch/group_ops.hpp"
#include "stoch/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred {
namespace {

using stoch::Dependence;
using stoch::StochasticValue;

// --- Algebraic laws of the calculus --------------------------------------

StochasticValue random_sv(support::Rng& rng) {
  const double mean = rng.uniform(-50.0, 50.0);
  const double half = rng.uniform(0.0, 10.0);
  return {mean, half};
}

class CalculusLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalculusLaws, AdditionIsCommutativeAndAssociativeOnMeans) {
  support::Rng rng(GetParam());
  for (int k = 0; k < 50; ++k) {
    const auto a = random_sv(rng);
    const auto b = random_sv(rng);
    const auto c = random_sv(rng);
    for (auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
      const auto ab = stoch::add(a, b, dep);
      const auto ba = stoch::add(b, a, dep);
      EXPECT_DOUBLE_EQ(ab.mean(), ba.mean());
      EXPECT_DOUBLE_EQ(ab.halfwidth(), ba.halfwidth());
      const auto left = stoch::add(stoch::add(a, b, dep), c, dep);
      const auto right = stoch::add(a, stoch::add(b, c, dep), dep);
      EXPECT_NEAR(left.mean(), right.mean(), 1e-9);
      EXPECT_NEAR(left.halfwidth(), right.halfwidth(), 1e-9);
    }
  }
}

TEST_P(CalculusLaws, ZeroIsAdditiveIdentityAndOneMultiplicative) {
  support::Rng rng(GetParam() + 1);
  for (int k = 0; k < 50; ++k) {
    const auto a = random_sv(rng);
    for (auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
      EXPECT_EQ(stoch::add(a, StochasticValue(), dep), a);
      if (a.mean() != 0.0) {
        const auto one = stoch::mul(a, StochasticValue(1.0), dep);
        EXPECT_DOUBLE_EQ(one.mean(), a.mean());
        EXPECT_NEAR(one.halfwidth(), a.halfwidth(), 1e-12);
      }
    }
  }
}

TEST_P(CalculusLaws, SumEqualsFoldOfAdds) {
  support::Rng rng(GetParam() + 2);
  std::vector<StochasticValue> xs;
  for (int k = 0; k < 12; ++k) xs.push_back(random_sv(rng));
  for (auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
    StochasticValue folded;
    for (const auto& x : xs) folded = stoch::add(folded, x, dep);
    const auto summed = stoch::sum(xs, dep);
    EXPECT_NEAR(summed.mean(), folded.mean(), 1e-9);
    EXPECT_NEAR(summed.halfwidth(), folded.halfwidth(), 1e-9);
  }
}

TEST_P(CalculusLaws, ScaleDistributesOverRelatedAddition) {
  support::Rng rng(GetParam() + 3);
  for (int k = 0; k < 50; ++k) {
    const auto a = random_sv(rng);
    const auto b = random_sv(rng);
    const double s = rng.uniform(-4.0, 4.0);
    const auto lhs = stoch::scale(stoch::add(a, b, Dependence::kRelated), s);
    const auto rhs = stoch::add(stoch::scale(a, s), stoch::scale(b, s),
                                Dependence::kRelated);
    EXPECT_NEAR(lhs.mean(), rhs.mean(), 1e-9);
    EXPECT_NEAR(lhs.halfwidth(), rhs.halfwidth(), 1e-9);
  }
}

TEST_P(CalculusLaws, RelatedIntervalAlwaysContainsUnrelated) {
  support::Rng rng(GetParam() + 4);
  for (int k = 0; k < 100; ++k) {
    const auto a = random_sv(rng);
    const auto b = random_sv(rng);
    EXPECT_GE(stoch::add(a, b, Dependence::kRelated).halfwidth(),
              stoch::add(a, b, Dependence::kUnrelated).halfwidth() - 1e-12);
    if (a.mean() != 0.0 && b.mean() != 0.0) {
      EXPECT_GE(stoch::mul(a, b, Dependence::kRelated).halfwidth(),
                stoch::mul(a, b, Dependence::kUnrelated).halfwidth() - 1e-12);
    }
  }
}

TEST_P(CalculusLaws, SmaxUpperBoundsEveryOperandMean) {
  support::Rng rng(GetParam() + 5);
  for (int k = 0; k < 50; ++k) {
    std::vector<StochasticValue> xs;
    for (int i = 0; i < 5; ++i) xs.push_back(random_sv(rng));
    const auto clark = stoch::smax(xs, stoch::ExtremePolicy::kClark);
    for (const auto& x : xs) {
      EXPECT_GE(clark.mean(), x.mean() - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalculusLaws,
                         ::testing::Values(101, 202, 303, 404));

// --- Engine invariants -----------------------------------------------------

class EngineStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineStress, EventsAlwaysObserveMonotoneTime) {
  support::Rng rng(GetParam());
  sim::Engine eng;
  double last_seen = -1.0;
  bool violated = false;
  std::size_t fired = 0;
  // Random schedule, including events scheduled from within events.
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    eng.schedule_at(t, [&, t] {
      if (eng.now() < last_seen) violated = true;
      last_seen = eng.now();
      ++fired;
      if (fired < 500) {
        eng.schedule_in(rng.uniform(0.0, 10.0), [&] {
          if (eng.now() < last_seen) violated = true;
          last_seen = eng.now();
          ++fired;
        });
      }
    });
  }
  eng.run();
  EXPECT_FALSE(violated);
  EXPECT_GE(fired, 200u);
  EXPECT_EQ(eng.events_processed(), fired);
}

TEST_P(EngineStress, CancelledEventsNeverFire) {
  support::Rng rng(GetParam() + 7);
  sim::Engine eng;
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(eng.schedule_at(rng.uniform(0.0, 10.0), [&] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    eng.cancel(ids[i]);
    ++cancelled;
  }
  eng.run();
  EXPECT_EQ(fired, 100 - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineStress, ::testing::Values(11, 22, 33));

// --- Fabric conservation -----------------------------------------------------

class EthernetStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EthernetStress, WorkConservationUnderRandomArrivals) {
  // However transfers interleave, a work-conserving fair-share link must
  // finish all bytes no earlier than bytes/capacity after the last idle
  // period, and every transfer must complete.
  support::Rng rng(GetParam());
  sim::Engine eng;
  net::EthernetSpec spec;
  spec.availability = net::dedicated_availability();
  net::SharedEthernet eth(eng, spec, 1);
  int completed = 0;
  double total_bytes = 0.0;
  const int kTransfers = 40;
  for (int i = 0; i < kTransfers; ++i) {
    const double at = rng.uniform(0.0, 5.0);
    const double bytes = rng.uniform(1e4, 5e5);
    total_bytes += bytes;
    eng.schedule_at(at, [&eth, bytes, &completed] {
      eth.start_transfer(bytes, [&completed] { ++completed; });
    });
  }
  eng.run();
  EXPECT_EQ(completed, kTransfers);
  // Finish no earlier than the pure-service lower bound.
  EXPECT_GE(eng.now() + 1e-6, total_bytes / spec.nominal_bandwidth);
  EXPECT_NEAR(eth.bytes_delivered(), total_bytes, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EthernetStress,
                         ::testing::Values(5, 15, 25, 35));

class SwitchedStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchedStress, MaxMinRatesNeverOversubscribeLinks) {
  // Invariant of max-min fairness: at every instant, the sum of transfer
  // rates through any link never exceeds its capacity, and every transfer
  // eventually completes.
  support::Rng rng(GetParam());
  sim::Engine eng;
  net::SwitchedSpec spec;
  spec.hosts = 5;
  spec.link_bandwidth = 1.0e6;
  spec.latency = 0.0;
  net::SwitchedEthernet sw(eng, spec);
  int completed = 0;
  struct Flow {
    int src, dst;
  };
  std::vector<Flow> flows;
  const int kFlows = 25;
  // ids[i] must stay aligned with flows[i] even though start events fire
  // in time order, so each event writes its own slot.
  std::vector<net::TransferId> ids(kFlows, 0);
  for (int i = 0; i < kFlows; ++i) {
    const int src = static_cast<int>(rng.uniform_int(5));
    int dst = static_cast<int>(rng.uniform_int(5));
    if (dst == src) dst = (dst + 1) % 5;
    flows.push_back({src, dst});
    const double bytes = rng.uniform(5e4, 5e5);
    const double at = rng.uniform(0.0, 2.0);
    eng.schedule_at(at, [&sw, &ids, &completed, i, src, dst, bytes] {
      ids[static_cast<std::size_t>(i)] =
          sw.send(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  // Audit link loads at random instants while transfers are in flight.
  for (int probe = 0; probe < 20; ++probe) {
    eng.schedule_at(rng.uniform(0.1, 3.0), [&] {
      std::vector<double> egress(5, 0.0);
      std::vector<double> ingress(5, 0.0);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == 0) continue;  // not started yet
        const double rate = sw.transfer_rate(ids[i]);
        egress[static_cast<std::size_t>(flows[i].src)] += rate;
        ingress[static_cast<std::size_t>(flows[i].dst)] += rate;
      }
      for (int h = 0; h < 5; ++h) {
        EXPECT_LE(egress[static_cast<std::size_t>(h)],
                  spec.link_bandwidth * (1.0 + 1e-9));
        EXPECT_LE(ingress[static_cast<std::size_t>(h)],
                  spec.link_bandwidth * (1.0 + 1e-9));
      }
    });
  }
  eng.run();
  EXPECT_EQ(completed, kFlows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchedStress, ::testing::Values(41, 42, 43));

// --- Breakdown & Wilson utilities -------------------------------------------

TEST(Breakdown, ComponentsComposeToTotal) {
  // Strip SOR and block SOR run a red and a black phase per iteration,
  // Jacobi one sweep and one exchange; each dominant host is the loaded
  // Sparc-2.
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 800;
  cfg.iterations = 12;
  const std::vector<StochasticValue> host0_loaded{
      {0.48, 0.05}, {0.92, 0.03}, {0.92, 0.03}, {0.92, 0.03}};
  const std::vector<StochasticValue> host1_loaded{
      {0.92, 0.03}, {0.48, 0.05}, {0.92, 0.03}, {0.92, 0.03}};
  struct Case {
    std::string name;
    predict::AuthoredModel authored;
    std::vector<StochasticValue> loads;
    std::size_t dominant_host;
    double phases;  ///< compute and comm phases per iteration
  };
  const std::vector<Case> cases{
      {"sor", predict::author_sor(spec, cfg), host0_loaded, 0, 2.0},
      {"block 2x2", predict::author_block_sor(spec, 800, 12, 2, 2),
       host0_loaded, 0, 2.0},
      {"jacobi", predict::author_jacobi(spec, 800, 12), host1_loaded, 1, 1.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const predict::StructuralModel model(c.authored);
    const auto env = model.make_env(c.loads, {0.525, 0.12});
    const auto b = model.breakdown(env);

    ASSERT_EQ(b.comp_per_host.size(), 4u);
    EXPECT_EQ(b.dominant_host, c.dominant_host);
    // Per-iteration mean = phases*(max comp) + phases*comm.
    EXPECT_NEAR(b.per_iteration.mean(),
                c.phases * b.comp_per_host[b.dominant_host].mean() +
                    c.phases * b.comm_per_phase.mean(),
                1e-9);
    // Total = iterations * per-iteration (related accumulation).
    EXPECT_NEAR(b.total.mean(), 12.0 * b.per_iteration.mean(), 1e-9);
    EXPECT_EQ(b.total, model.predict(env));
  }
}

/// Bit-exact comparison of a breakdown term against its pinned hexfloats.
void expect_bits(const StochasticValue& got, double mean, double halfwidth,
                 const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean()),
            std::bit_cast<std::uint64_t>(mean))
      << what << " mean: got " << std::hexfloat << got.mean() << ", pinned "
      << mean;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.halfwidth()),
            std::bit_cast<std::uint64_t>(halfwidth))
      << what << " halfwidth: got " << std::hexfloat << got.halfwidth()
      << ", pinned " << halfwidth;
}

// The model, loads and bandwidth of ComponentsComposeToTotal; every term
// compiled against the model's slot table and evaluated by the §2.3 folds.
TEST(Breakdown, SorComponentsKeepTheirBits) {
  sor::SorConfig cfg;
  cfg.n = 800;
  cfg.iterations = 12;
  const predict::StructuralModel model(
      predict::author_sor(cluster::platform1(), cfg));
  const std::vector<StochasticValue> loads{
      {0.48, 0.05}, {0.92, 0.03}, {0.92, 0.03}, {0.92, 0.03}};
  const auto b = model.breakdown(model.make_env(loads, {0.525, 0.12}));

  constexpr double kComp[4][2] = {
      {0x1.5555555555556p-1, 0x1.1c71c71c71c72p-4},
      {0x1.642c8590b2164p-2, 0x1.73a8e46a770c1p-7},
      {0x1.1cf06ada2811dp-3, 0x1.2953e9eec5a34p-8},
      {0x1.642c8590b2164p-4, 0x1.73a8e46a770c1p-9}};
  ASSERT_EQ(b.comp_per_host.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    expect_bits(b.comp_per_host[p], kComp[p][0], kComp[p][1],
                "comp host " + std::to_string(p));
  }
  expect_bits(b.comm_per_phase, 0x1.ed886b929a087p-5, 0x1.bbbd809aa2032p-7,
              "comm per phase");
  expect_bits(b.per_iteration, 0x1.742ddc0e7ef5ep+0, 0x1.21cd5a03d816bp-3,
              "per iteration");
  expect_bits(b.total, 0x1.1722650adf386p+4, 0x1.b2b40705c422p+0, "total");
  EXPECT_EQ(b.dominant_host, 0u);
}

TEST(Wilson, KnownValuesAndMonotonicity) {
  // 13/16 ≈ 81%: the interval is wide — the paper's "~80%" over 16 points.
  const auto ci = stoch::wilson_interval(13, 16);
  EXPECT_LT(ci.lower, 0.70);
  EXPECT_GT(ci.upper, 0.90);
  // More trials narrow it.
  const auto big = stoch::wilson_interval(130, 160);
  EXPECT_GT(big.lower, ci.lower);
  EXPECT_LT(big.upper, ci.upper);
  // Degenerate edges stay within [0,1].
  const auto zero = stoch::wilson_interval(0, 10);
  EXPECT_NEAR(zero.lower, 0.0, 1e-12);
  EXPECT_GT(zero.upper, 0.0);
  const auto all = stoch::wilson_interval(10, 10);
  EXPECT_NEAR(all.upper, 1.0, 1e-12);
  EXPECT_LT(all.lower, 1.0);
  EXPECT_THROW((void)stoch::wilson_interval(5, 0), support::Error);
  EXPECT_THROW((void)stoch::wilson_interval(11, 10), support::Error);
}

}  // namespace
}  // namespace sspred
