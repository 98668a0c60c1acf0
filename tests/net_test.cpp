// Unit tests for the shared-ethernet fluid model.
#include <gtest/gtest.h>

#include <vector>

#include "net/ethernet.hpp"
#include "sim/engine.hpp"
#include "support/error.hpp"

namespace sspred::net {
namespace {

EthernetSpec dedicated_spec() {
  EthernetSpec spec;
  spec.availability = dedicated_availability();
  return spec;  // 10 Mbit nominal, ~1.0 availability
}

TEST(SharedEthernet, SingleTransferTakesBytesOverBandwidth) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  double done_at = -1.0;
  eth.start_transfer(1.25e6, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 1.0, 0.02);  // 1.25 MB at 1.25 MB/s
  EXPECT_DOUBLE_EQ(eth.bytes_delivered(), 1.25e6);
}

// Late in virtual time the clock's rounding leaves a residual above the
// remainder epsilon that no reschedule can deliver; the completion rule
// delivers it instead of firing at the same instant forever.
TEST(SharedEthernet, CompletesLateInVirtualTime) {
  sim::Engine eng;
  eng.run_until(16500.0);
  SharedEthernet eth(eng, dedicated_spec(), 7);
  bool done = false;
  eth.start_transfer(8000.0, [&] { done = true; });
  int steps = 0;
  while (!done && steps < 1000 && eng.step_one()) ++steps;
  EXPECT_TRUE(done) << "not delivered after " << steps << " events";
}

TEST(SharedEthernet, TwoEqualTransfersShareFairly) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  std::vector<double> done;
  eth.start_transfer(1.25e6, [&] { done.push_back(eng.now()); });
  eth.start_transfer(1.25e6, [&] { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 0.05);
  EXPECT_NEAR(done[1], 2.0, 0.05);
}

TEST(SharedEthernet, ShortTransferFinishesFirstThenLongSpeedsUp) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  double short_done = -1.0;
  double long_done = -1.0;
  eth.start_transfer(2.5e6, [&] { long_done = eng.now(); });
  eth.start_transfer(1.25e6, [&] { short_done = eng.now(); });
  eng.run();
  // Short: 1.25 MB at half rate -> ~2 s. Long: 1.25 MB left at full rate
  // after t=2 -> ~3 s total.
  EXPECT_NEAR(short_done, 2.0, 0.06);
  EXPECT_NEAR(long_done, 3.0, 0.08);
}

TEST(SharedEthernet, LateArrivalSlowsInFlightTransfer) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  double first_done = -1.0;
  eth.start_transfer(2.5e6, [&] { first_done = eng.now(); });
  eng.schedule_at(1.0, [&] { eth.start_transfer(2.5e6, [] {}); });
  eng.run();
  // First: 1.25MB in the first second, the rest at half rate -> ~3 s.
  EXPECT_NEAR(first_done, 3.0, 0.08);
}

TEST(SharedEthernet, AvailabilityScalesThroughput) {
  sim::Engine eng;
  EthernetSpec spec;
  stats::ModeState half;
  half.shape.center = 0.5;
  half.shape.sd = 1e-4;
  half.mean_dwell = 1e9;
  spec.availability.modes.push_back(half);
  spec.availability.lo = 0.4;
  spec.availability.hi = 0.6;
  SharedEthernet eth(eng, spec, 3);
  double done_at = -1.0;
  eth.start_transfer(1.25e6, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 2.0, 0.05);  // half the capacity -> twice the time
}

TEST(SharedEthernet, EngineTerminatesWhenIdle) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  eth.start_transfer(1e5, [] {});
  eng.run();  // must not hang on availability ticks
  EXPECT_EQ(eth.active_transfers(), 0u);
  const auto events_after_first_run = eng.events_processed();
  eng.run();
  EXPECT_EQ(eng.events_processed(), events_after_first_run);
}

TEST(SharedEthernet, SequentialTransfersIndependent) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  std::vector<double> done;
  eth.start_transfer(1.25e6, [&] {
    done.push_back(eng.now());
    eth.start_transfer(1.25e6, [&] { done.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 0.02);
  EXPECT_NEAR(done[1], 2.0, 0.04);
}

TEST(SharedEthernet, TransferAwaitableResumesProcess) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  double resumed_at = -1.0;
  eng.spawn([](sim::Engine& e, SharedEthernet& net, double& out) -> sim::Process {
    co_await net.transfer(1.25e6);
    out = e.now();
  }(eng, eth, resumed_at));
  eng.run();
  EXPECT_NEAR(resumed_at, 1.0, 0.02);
}

TEST(SharedEthernet, ZeroByteTransferRejected) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  EXPECT_THROW(eth.start_transfer(0.0, [] {}), support::Error);
}

TEST(SharedEthernet, InvalidSpecRejected) {
  sim::Engine eng;
  EthernetSpec bad = dedicated_spec();
  bad.nominal_bandwidth = 0.0;
  EXPECT_THROW(SharedEthernet(eng, bad, 1), support::Error);
  EthernetSpec bad2 = dedicated_spec();
  bad2.latency = -1.0;
  EXPECT_THROW(SharedEthernet(eng, bad2, 1), support::Error);
}

TEST(SharedEthernet, ManyTransfersConserveWork) {
  sim::Engine eng;
  SharedEthernet eth(eng, dedicated_spec(), 1);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    eth.start_transfer(1.25e5, [&] { ++completed; });
  }
  eng.run();
  EXPECT_EQ(completed, 10);
  // Total service time: 10 * 0.125 MB at 1.25 MB/s = 1 s regardless of
  // the sharing pattern (work conservation).
  EXPECT_NEAR(eng.now(), 1.0, 0.03);
}

TEST(ProductionAvailability, LongTailedBelowNominal) {
  sim::Engine eng;
  EthernetSpec spec;
  stats::ModeState prod;
  prod.shape.center = 0.525;
  prod.shape.sd = 0.06;
  prod.shape.tail = stats::Tail::kDown;
  prod.mean_dwell = 30.0;
  spec.availability.modes.push_back(prod);
  spec.availability.lo = 0.05;
  spec.availability.hi = 1.0;
  SharedEthernet eth(eng, spec, 7);
  // Probe the availability process via repeated small transfers.
  std::vector<double> samples;
  double prev = 0.0;
  std::function<void()> chain = [&] {
    samples.push_back(eng.now() - prev);
    prev = eng.now();
    if (samples.size() < 200) eth.start_transfer(1.25e5, chain);
  };
  eth.start_transfer(1.25e5, chain);
  eng.run();
  // Mean effective availability ~0.525 -> mean per-transfer time ~0.19 s.
  double total = 0.0;
  for (double s : samples) total += s;
  const double mean_time = total / static_cast<double>(samples.size());
  EXPECT_GT(mean_time, 0.13);
  EXPECT_LT(mean_time, 0.35);
}

}  // namespace
}  // namespace sspred::net
