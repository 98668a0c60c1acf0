// Tests for the multi-node serving tier (src/dserve/): fault-plan
// parsing and link fault injection, the ServingNode wire surface
// (crash/restart lifecycle, garbage tolerance), Membership's health
// state from request outcomes and heartbeats, and the ClusterFrontend
// end to end — healthy-cluster bit-exactness vs a single-node service,
// failover determinism across a mid-stream crash (no accepted request
// lost, identical ids + values), epoch convergence after a restart
// ("partition heal"), node-prefixed metrics nesting, observation
// forwarding, and a concurrent clients-vs-faults stress (TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "calib/ledger.hpp"
#include "cluster/platform.hpp"
#include "dserve/fault.hpp"
#include "dserve/frontend.hpp"
#include "dserve/membership.hpp"
#include "dserve/node.hpp"
#include "serve/wire.hpp"
#include "support/error.hpp"

namespace sspred::dserve {
namespace {

serve::ModelSpec family_spec(std::size_t n, std::size_t hosts = 2) {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

serve::PredictRequest request_for(const std::string& id, double base) {
  serve::PredictRequest request;
  request.model_id = id;
  request.loads = {stoch::StochasticValue(base, 0.1),
                   stoch::StochasticValue(base + 0.05, 0.1)};
  return request;
}

ClusterOptions small_cluster(std::size_t nodes = 3) {
  ClusterOptions options;
  options.nodes = nodes;
  options.replicas = 2;
  options.node_options.shards = 1;
  options.node_options.workers = 2;
  return options;
}

void register_families(ClusterFrontend& cluster, std::size_t families) {
  for (std::size_t f = 0; f < families; ++f) {
    cluster.register_model("family" + std::to_string(f),
                           family_spec(100 + 37 * f));
  }
}

// --- FaultPlan ---------------------------------------------------------

TEST(DserveFaultPlan, ParsesSpecGrammar) {
  FaultPlan plan = FaultPlan::parse(
      "crash@100:1,restart@300:1,slow@50:2:0.002,drop@10:0:5,"
      "delay@20:1:0.001");
  ASSERT_EQ(plan.remaining(), 5u);
  const auto& events = plan.events();
  // Sorted by step.
  EXPECT_EQ(events[0].kind, FaultEvent::Kind::kDrop);
  EXPECT_EQ(events[0].step, 10u);
  EXPECT_EQ(events[0].node, 0u);
  EXPECT_DOUBLE_EQ(events[0].param, 5.0);
  EXPECT_EQ(events[1].kind, FaultEvent::Kind::kDelay);
  EXPECT_EQ(events[2].kind, FaultEvent::Kind::kSlow);
  EXPECT_DOUBLE_EQ(events[2].param, 0.002);
  EXPECT_EQ(events[3].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(events[3].node, 1u);
  EXPECT_EQ(events[4].kind, FaultEvent::Kind::kRestart);
  EXPECT_EQ(events[4].step, 300u);

  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(DserveFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("explode@1:0"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("crash@1"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("crash:1@2"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("crash@x:0"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("crash@1:0junk"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("crash@1:0:5:9"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("slow@1:0"), support::Error);
  EXPECT_THROW((void)FaultPlan::parse("delay@1:0:-0.5"), support::Error);
}

TEST(DserveFaultPlan, TakeDueConsumesInScheduleOrder) {
  FaultPlan plan = FaultPlan::parse("crash@5:0,restart@9:0,crash@5:1");
  EXPECT_TRUE(plan.take_due(4).empty());
  const auto due = plan.take_due(5);
  ASSERT_EQ(due.size(), 2u);  // both step-5 events, insertion order
  EXPECT_EQ(due[0].node, 0u);
  EXPECT_EQ(due[1].node, 1u);
  EXPECT_EQ(plan.remaining(), 1u);
  EXPECT_EQ(plan.take_due(100).size(), 1u);
  EXPECT_TRUE(plan.empty());
}

// --- FaultyLink --------------------------------------------------------

class EchoTransport final : public Transport {
 public:
  std::optional<std::vector<std::uint8_t>> call(
      const std::vector<std::uint8_t>& frame) override {
    ++calls;
    return frame;
  }
  int calls = 0;
};

TEST(DserveFaultyLink, DropsArmedFramesThenForwards) {
  EchoTransport echo;
  FaultyLink link(echo);
  const std::vector<std::uint8_t> frame = {1, 2, 3};

  link.drop_next(2);
  EXPECT_FALSE(link.call(frame).has_value());
  EXPECT_FALSE(link.call(frame).has_value());
  const auto reply = link.call(frame);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, frame);
  EXPECT_EQ(link.dropped(), 2u);
  EXPECT_EQ(echo.calls, 1);

  link.set_delay(1e-6);
  EXPECT_TRUE(link.call(frame).has_value());
  EXPECT_EQ(link.delayed(), 1u);
  link.set_delay(0.0);
  EXPECT_TRUE(link.call(frame).has_value());
  EXPECT_EQ(link.delayed(), 1u);
}

// --- ServingNode -------------------------------------------------------

TEST(DserveNode, ServesWireFramesAndSurvivesGarbage) {
  serve::ServiceOptions options;
  options.workers = 1;
  ServingNode node(0, options);
  node.register_model("sor", family_spec(120));

  // A prediction round trip, pure bytes in / bytes out.
  const auto frame = serve::encode_request(request_for("sor", 0.8), 77);
  const auto reply = node.handle_frame(frame);
  ASSERT_TRUE(reply.has_value());
  const auto decoded =
      serve::decode_response(reply->data() + 4, reply->size() - 4);
  EXPECT_EQ(decoded.client_tag, 77u);
  ASSERT_TRUE(decoded.result.ok()) << decoded.result.error;
  EXPECT_GT(decoded.result.point, 0.0);

  // Heartbeat: epoch version 0 before any publish.
  const auto hb = node.handle_frame(serve::encode_heartbeat(5));
  ASSERT_TRUE(hb.has_value());
  const auto ack = serve::decode_heartbeat_ack(hb->data() + 4, hb->size() - 4);
  EXPECT_EQ(ack.client_tag, 5u);
  EXPECT_EQ(ack.epoch_version, 0u);

  // Epoch publish installs and acks.
  serve::EpochFrame epoch;
  epoch.client_tag = 9;
  epoch.version = 3;
  epoch.bindings.emplace("cpu/a", stoch::StochasticValue(0.5, 0.1));
  const auto ea = node.handle_frame(serve::encode_epoch_publish(epoch));
  ASSERT_TRUE(ea.has_value());
  EXPECT_EQ(serve::decode_epoch_ack(ea->data() + 4, ea->size() - 4).version,
            3u);
  EXPECT_EQ(node.epoch_version(), 3u);

  // Garbage frames: nullopt + bad_frames count, never a throw.
  EXPECT_FALSE(node.handle_frame({0x01, 0x02}).has_value());
  std::vector<std::uint8_t> junk(32, 0xab);
  EXPECT_FALSE(node.handle_frame(junk).has_value());
  // A reply type is a protocol violation on a node's inbound stream.
  EXPECT_FALSE(node.handle_frame(*reply).has_value());
  EXPECT_EQ(node.metrics().counter("node_bad_frames").value(), 3u);
}

TEST(DserveNode, RejectsAFrameWhosePrefixDisagreesWithItsSize) {
  serve::ServiceOptions options;
  options.workers = 1;
  ServingNode node(0, options);
  node.register_model("sor", family_spec(120));
  const auto frame = serve::encode_request(request_for("sor", 0.8), 3);
  ASSERT_TRUE(node.handle_frame(frame).has_value());

  for (const std::size_t bit : {0u, 9u, 31u}) {
    auto corrupt = frame;
    corrupt[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    EXPECT_FALSE(node.handle_frame(corrupt).has_value()) << "bit " << bit;
  }
  EXPECT_EQ(node.metrics().counter("node_bad_frames").value(), 3u);
  // Rejected before dispatch: only the intact frame reached the service.
  EXPECT_EQ(node.metrics().counter("node_frames_served").value(), 1u);
  EXPECT_EQ(node.service_counter("requests_total"), 1u);
}

TEST(DserveNode, CrashStopsServiceAndRestartLosesEpochNotModels) {
  serve::ServiceOptions options;
  options.workers = 1;
  ServingNode node(1, options);
  node.register_model("sor", family_spec(140));

  serve::EpochFrame epoch;
  epoch.version = 7;
  ASSERT_TRUE(
      node.handle_frame(serve::encode_epoch_publish(epoch)).has_value());
  EXPECT_EQ(node.epoch_version(), 7u);

  node.crash();
  EXPECT_TRUE(node.crashed());
  node.crash();  // idempotent
  const auto frame = serve::encode_request(request_for("sor", 0.8), 1);
  EXPECT_FALSE(node.handle_frame(frame).has_value());
  EXPECT_FALSE(node.handle_frame(serve::encode_heartbeat(1)).has_value());
  EXPECT_EQ(node.epoch_version(), 0u);  // crashed: reports nothing

  node.restart();
  EXPECT_FALSE(node.crashed());
  EXPECT_EQ(node.epoch_version(), 0u);  // epoch lost at restart...
  const auto reply = node.handle_frame(frame);  // ...models survived
  ASSERT_TRUE(reply.has_value());
  const auto decoded =
      serve::decode_response(reply->data() + 4, reply->size() - 4);
  EXPECT_TRUE(decoded.result.ok()) << decoded.result.error;
  EXPECT_EQ(node.metrics().counter("node_crashes").value(), 1u);
  EXPECT_EQ(node.metrics().counter("node_restarts").value(), 1u);
}

// --- Membership --------------------------------------------------------

TEST(DserveMembership, FusesOutcomesAndHeartbeatsIntoStates) {
  serve::MetricsRegistry registry;
  Membership membership(2, registry, /*down_after=*/2);
  EXPECT_EQ(membership.state(0), NodeState::kUp);
  EXPECT_EQ(membership.up_count(), 2u);

  // One failure leaves the node up; the second consecutive one downs it.
  membership.record_failure(0);
  EXPECT_NE(membership.state(0), NodeState::kDown);
  membership.record_failure(0);
  EXPECT_EQ(membership.state(0), NodeState::kDown);
  EXPECT_EQ(membership.up_count(), 1u);
  EXPECT_EQ(registry.counter("node_transitions_down").value(), 1u);

  // A heartbeat resurrects with a clean slate.
  membership.heartbeat_ok(0, 4);
  EXPECT_EQ(membership.state(0), NodeState::kUp);
  EXPECT_EQ(membership.health(0).epoch_version, 4u);
  EXPECT_EQ(registry.counter("node_transitions_up").value(), 1u);

  // Missed heartbeats alone also down a node.
  membership.heartbeat_missed(1);
  EXPECT_NE(membership.state(1), NodeState::kDown);
  membership.heartbeat_missed(1);
  EXPECT_EQ(membership.state(1), NodeState::kDown);

  EXPECT_THROW((void)membership.state(7), std::out_of_range);
}

// --- ClusterFrontend ---------------------------------------------------

TEST(ClusterFrontend, HealthyClusterMatchesSingleNodeBitExact) {
  constexpr std::size_t kFamilies = 4;
  constexpr int kRequests = 40;

  // Single-node baseline: one service, same per-node configuration.
  serve::PredictionService single(small_cluster().node_options);
  ClusterFrontend cluster(small_cluster());
  for (std::size_t f = 0; f < kFamilies; ++f) {
    single.register_model("family" + std::to_string(f),
                          family_spec(100 + 37 * f));
  }
  register_families(cluster, kFamilies);

  for (int i = 0; i < kRequests; ++i) {
    const auto request = request_for(
        "family" + std::to_string(i % kFamilies), 0.6 + 0.01 * (i % 7));
    const auto expected = single.submit(request).get();
    ASSERT_TRUE(expected.ok()) << expected.error;

    const ClusterResult served = cluster.predict(request);
    ASSERT_TRUE(served.result.ok()) << served.result.error;
    EXPECT_EQ(served.attempts, 1u);
    // Bit-exact: same value wherever it ran.
    EXPECT_EQ(served.result.value, expected.value);
    EXPECT_EQ(served.result.point, expected.point);
    // Cluster ids are the frontend's step sequence.
    EXPECT_EQ(served.result.request_id, static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(cluster.metrics().counter("requests_ok").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(cluster.metrics().counter("failovers_total").value(), 0u);
}

TEST(ClusterFrontend, UnknownModelAnsweredStructurallyNotDropped) {
  ClusterFrontend cluster(small_cluster());
  register_families(cluster, 1);
  const ClusterResult served = cluster.predict(request_for("nope", 0.7));
  EXPECT_EQ(served.result.status, serve::PredictResult::Status::kError);
  EXPECT_NE(served.result.error.find("nope"), std::string::npos);
}

// The tentpole determinism claim: a fixed-seed run with a mid-stream
// node crash, or a crash and a later restart, returns the identical
// (request_id -> value) set as the healthy run — requests just arrive
// via different nodes.
TEST(ClusterFrontend, FailoverAcrossCrashPreservesResultSetBitExact) {
  constexpr std::size_t kFamilies = 5;
  constexpr int kRequests = 60;
  // A third of the way into the stream; the second plan restarts the
  // victim two thirds of the way in.
  constexpr std::uint64_t kCrashStep = kRequests / 3;
  constexpr std::uint64_t kRestartStep = 2 * kRequests / 3;

  // Crash family0's primary: family0 is requested both before and after
  // the crash step, so the victim provably serves, dies, and is routed
  // around. Placement is deterministic, so a probe cluster's ring
  // answers for every run.
  const std::size_t victim = [] {
    ClusterFrontend probe(small_cluster());
    register_families(probe, kFamilies);
    return probe.replica_set("family0").front();
  }();

  const auto run = [&](FaultPlan plan,
                       std::vector<std::size_t>* nodes_used) {
    ClusterFrontend cluster(small_cluster(), std::move(plan));
    register_families(cluster, kFamilies);
    std::map<std::uint64_t, serve::PredictResult> results;
    for (int i = 0; i < kRequests; ++i) {
      const auto request = request_for(
          "family" + std::to_string(i % kFamilies), 0.55 + 0.01 * (i % 9));
      ClusterResult served = cluster.predict(request);
      EXPECT_TRUE(served.result.ok()) << served.result.error;
      if (nodes_used != nullptr) nodes_used->push_back(served.node);
      results.emplace(served.result.request_id, std::move(served.result));
      // Membership writes a crashed node off until a heartbeat answers;
      // one right after the restart step lets a restarted victim serve.
      if (i + 1 == static_cast<int>(kRestartStep)) {
        (void)cluster.heartbeat_tick();
      }
    }
    EXPECT_EQ(results.size(), static_cast<std::size_t>(kRequests));
    return results;
  };

  std::vector<std::size_t> healthy_nodes;
  std::vector<std::size_t> crashed_nodes;
  const auto healthy = run(FaultPlan{}, &healthy_nodes);

  // Zero lost accepted requests, identical ids and bit-exact values.
  const auto expect_healthy_result_set =
      [&](const std::map<std::uint64_t, serve::PredictResult>& faulted,
          const std::string& plan) {
        ASSERT_EQ(healthy.size(), faulted.size()) << plan;
        for (const auto& [id, expected] : healthy) {
          const auto it = faulted.find(id);
          ASSERT_NE(it, faulted.end()) << plan << ": request " << id
                                       << " lost";
          EXPECT_EQ(it->second.value, expected.value)
              << plan << ": request " << id;
          EXPECT_EQ(it->second.point, expected.point)
              << plan << ": request " << id;
        }
      };

  FaultPlan crash;
  crash.add({FaultEvent::Kind::kCrash, kCrashStep, victim, 0.0});
  expect_healthy_result_set(run(std::move(crash), &crashed_nodes), "crash");

  // The victim actually served before the crash and never after it.
  bool victim_served_before = false;
  for (std::size_t i = 0; i < crashed_nodes.size(); ++i) {
    if (crashed_nodes[i] != victim) continue;
    if (i + 1 < kCrashStep) {
      victim_served_before = true;
    } else {
      ADD_FAILURE() << "crashed node served step " << i + 1;
    }
  }
  EXPECT_TRUE(victim_served_before);
  EXPECT_NE(healthy_nodes, crashed_nodes);  // failover rerouted something

  // The restarted victim serves the healthy run's bits again.
  FaultPlan crash_restart;
  crash_restart.add({FaultEvent::Kind::kCrash, kCrashStep, victim, 0.0});
  crash_restart.add({FaultEvent::Kind::kRestart, kRestartStep, victim, 0.0});
  std::vector<std::size_t> restarted_nodes;
  expect_healthy_result_set(run(std::move(crash_restart), &restarted_nodes),
                            "crash + restart");
  EXPECT_NE(std::find(restarted_nodes.begin() + kRestartStep,
                      restarted_nodes.end(), victim),
            restarted_nodes.end());
}

TEST(ClusterFrontend, EpochConvergesAfterCrashRestartHeal) {
  ClusterOptions options = small_cluster();
  ClusterFrontend cluster(options);
  cluster.register_model("sor", family_spec(130));

  std::map<std::string, stoch::StochasticValue> bindings;
  bindings.emplace("cpu/a", stoch::StochasticValue(0.7, 0.1));
  bindings.emplace("cpu/b", stoch::StochasticValue(0.8, 0.1));
  cluster.publish_epoch(
      std::make_shared<const serve::BindingsEpoch>(5, bindings));
  EXPECT_EQ(cluster.epoch_version(), 5u);
  for (std::size_t n = 0; n < cluster.nodes(); ++n) {
    EXPECT_EQ(cluster.node(n).epoch_version(), 5u);
  }
  EXPECT_EQ(cluster.heartbeat_tick(), 0u);  // everyone current

  // Partition: node 1 dies, misses an epoch bump, comes back empty.
  cluster.inject({FaultEvent::Kind::kCrash, 0, 1, 0.0});
  bindings["cpu/a"] = stoch::StochasticValue(0.75, 0.1);
  cluster.publish_epoch(
      std::make_shared<const serve::BindingsEpoch>(6, bindings));
  cluster.inject({FaultEvent::Kind::kRestart, 0, 1, 0.0});
  EXPECT_EQ(cluster.node(1).epoch_version(), 0u);  // fresh, no epoch

  // Heal: the next heartbeat tick detects the skew and rebalances.
  EXPECT_EQ(cluster.heartbeat_tick(), 1u);
  EXPECT_EQ(cluster.node(1).epoch_version(), 6u);
  EXPECT_GE(cluster.metrics().counter("rebalances_total").value(), 1u);
  EXPECT_EQ(cluster.heartbeat_tick(), 0u);  // converged

  // And the healed node actually serves off the synced epoch.
  serve::PredictRequest by_resource;
  by_resource.model_id = "sor";
  by_resource.resources = {"cpu/a", "cpu/b"};
  const auto reply =
      cluster.node(1).handle_frame(serve::encode_request(by_resource, 1));
  ASSERT_TRUE(reply.has_value());
  const auto decoded =
      serve::decode_response(reply->data() + 4, reply->size() - 4);
  ASSERT_TRUE(decoded.result.ok()) << decoded.result.error;
  EXPECT_EQ(decoded.result.epoch_version, 6u);
}

TEST(ClusterFrontend, DownNodesSinkInFailoverOrderAndRecover) {
  ClusterFrontend cluster(small_cluster());
  register_families(cluster, 6);

  // Find a family whose primary is node `victim`.
  const std::size_t victim = cluster.replica_set("family0").front();
  cluster.inject({FaultEvent::Kind::kCrash, 0, victim, 0.0});

  // One failure leaves the crashed primary up, so it is still tried
  // first; the second consecutive failure downs it, and the next request
  // goes straight to the successor.
  ClusterResult first = cluster.predict(request_for("family0", 0.7));
  ASSERT_TRUE(first.result.ok()) << first.result.error;
  EXPECT_EQ(first.attempts, 2u);
  EXPECT_EQ(cluster.membership().state(victim), NodeState::kUp);

  ClusterResult again = cluster.predict(request_for("family0", 0.7));
  ASSERT_TRUE(again.result.ok()) << again.result.error;
  EXPECT_EQ(again.attempts, 2u);
  EXPECT_EQ(cluster.membership().state(victim), NodeState::kDown);

  ClusterResult second = cluster.predict(request_for("family0", 0.7));
  ASSERT_TRUE(second.result.ok()) << second.result.error;
  EXPECT_EQ(second.attempts, 1u);
  EXPECT_NE(second.node, victim);
  EXPECT_EQ(cluster.metrics().counter("failovers_total").value(), 2u);
  EXPECT_EQ(cluster.metrics().counter("requests_retried").value(), 2u);

  // Restart + heartbeat: the node rejoins the preferred order.
  cluster.inject({FaultEvent::Kind::kRestart, 0, victim, 0.0});
  (void)cluster.heartbeat_tick();
  EXPECT_EQ(cluster.membership().state(victim), NodeState::kUp);
  ClusterResult third = cluster.predict(request_for("family0", 0.7));
  ASSERT_TRUE(third.result.ok()) << third.result.error;
  EXPECT_EQ(third.node, victim);
  EXPECT_EQ(third.result.value, first.result.value);  // still bit-exact
}

TEST(ClusterFrontend, WholeReplicaSetDownYieldsStructuredRejection) {
  ClusterOptions options = small_cluster(2);
  options.replicas = 2;
  ClusterFrontend cluster(options);
  register_families(cluster, 1);
  cluster.inject({FaultEvent::Kind::kCrash, 0, 0, 0.0});
  cluster.inject({FaultEvent::Kind::kCrash, 0, 1, 0.0});

  const ClusterResult served = cluster.predict(request_for("family0", 0.7));
  EXPECT_EQ(served.result.status, serve::PredictResult::Status::kRejected);
  EXPECT_NE(served.result.error.find("no replica"), std::string::npos);
  EXPECT_EQ(served.attempts, 2u);
  EXPECT_EQ(cluster.metrics().counter("requests_rejected").value(), 1u);
}

TEST(ClusterFrontend, MetricsNestNodeAndShardPrefixes) {
  ClusterOptions options = small_cluster();
  options.node_options.shards = 2;  // nodes expose shard children
  ClusterFrontend cluster(options);
  register_families(cluster, 3);
  for (int i = 0; i < 12; ++i) {
    (void)cluster.predict(request_for("family" + std::to_string(i % 3), 0.7));
  }

  std::set<std::string> names;
  for (const auto& sample : cluster.metrics().snapshot()) {
    names.insert(sample.name);
  }
  // Frontend's own counters, unprefixed.
  EXPECT_TRUE(names.contains("requests_total"));
  EXPECT_TRUE(names.contains("failovers_total"));
  // Node children: node-level instruments plus the service's registry
  // merged unprefixed under "node<k>/".
  EXPECT_TRUE(names.contains("node0/node_frames_served"));
  EXPECT_TRUE(names.contains("node0/requests_total"));
  // Nested prefixes compose: the service's own shard children surface as
  // node<k>/shard<j>/... rows.
  EXPECT_TRUE(names.contains("node0/shard1/requests_total"));
  EXPECT_TRUE(names.contains("node2/shard0/queue_depth"));

  const std::string json = cluster.render_metrics_json();
  EXPECT_NE(json.find("\"node0/shard1/requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"node1/node_frames_served\""), std::string::npos);
}

TEST(ClusterFrontend, ObservationsForwardToServingNode) {
  ClusterOptions options = small_cluster();
  options.node_options.ledger = std::make_shared<calib::AccuracyLedger>();
  ClusterFrontend cluster(options);
  cluster.register_model("sor", family_spec(125));

  const ClusterResult served = cluster.predict(request_for("sor", 0.8));
  ASSERT_TRUE(served.result.ok()) << served.result.error;
  EXPECT_TRUE(cluster.report_observation(served.result.request_id,
                                         served.result.point * 1.02));
  // Same id again: the mapping is consumed.
  EXPECT_FALSE(cluster.report_observation(served.result.request_id, 1.0));
  EXPECT_FALSE(cluster.report_observation(9999, 1.0));
  EXPECT_EQ(cluster.metrics().counter("observations_forwarded").value(), 1u);
  EXPECT_EQ(cluster.metrics().counter("observations_unmatched").value(), 2u);

  // The ledger on the serving node actually ingested it.
  const auto snapshot = options.node_options.ledger->snapshot();
  EXPECT_EQ(snapshot.count, 1u);
}

// Concurrent clients vs scheduled faults (TSan target): no result is
// lost or invented, every future resolves, and the cluster serves
// through a crash/restart cycle.
TEST(ClusterFrontend, ConcurrentClientsSurviveCrashRestartStress) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 60;
  constexpr std::size_t kFamilies = 6;

  ClusterOptions options = small_cluster();
  options.node_options.workers = 2;
  FaultPlan plan = FaultPlan::parse("crash@60:0,restart@140:0,crash@160:2");
  ClusterFrontend cluster(options, std::move(plan));
  register_families(cluster, kFamilies);

  std::atomic<int> served{0};
  std::atomic<int> lost{0};
  std::atomic<bool> stop_heartbeats{false};
  std::thread heartbeats([&] {
    while (!stop_heartbeats.load()) {
      (void)cluster.heartbeat_tick();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const auto id =
            "family" + std::to_string((c + i) % kFamilies);
        const ClusterResult r = cluster.predict(request_for(id, 0.7));
        if (r.result.ok()) {
          served.fetch_add(1);
        } else {
          lost.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_heartbeats.store(true);
  heartbeats.join();

  EXPECT_EQ(served.load() + lost.load(), kClients * kPerClient);
  // R=2 replicas and at most one node down at a time: every request has
  // a live replica, so nothing is lost.
  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(cluster.metrics().counter("requests_ok").value(),
            static_cast<std::uint64_t>(served.load()));
}

// --- Learning across the cluster tier ---------------------------------

// Satellite regression: when the frontend's bounded served-id map evicts
// under pressure, reports for evicted ids must come back unmatched — and
// must never reach the ledger or the learned-predictor bank, whose
// training counts have to equal the forwarded-observation count exactly.
TEST(ClusterFrontend, EvictedIdsStayOutOfLedgerAndBankTraining) {
  constexpr std::size_t kCapacity = serve::kObservationCapacity;
  constexpr std::size_t kRequests = kCapacity + 8;

  ClusterOptions options = small_cluster(2);
  options.node_options.ledger = std::make_shared<calib::AccuracyLedger>();
  options.node_options.enable_learning = true;
  ClusterFrontend cluster(options);
  cluster.register_model("sor", family_spec(125));

  std::vector<ClusterResult> served;
  for (std::size_t i = 0; i < kRequests; ++i) {
    served.push_back(cluster.predict(request_for("sor", 0.6)));
    ASSERT_TRUE(served.back().result.ok()) << served.back().result.error;
  }

  // The oldest kRequests - kCapacity ids were evicted from the map.
  for (std::size_t i = 0; i < kRequests - kCapacity; ++i) {
    EXPECT_FALSE(cluster.report_observation(served[i].result.request_id,
                                            served[i].result.point));
  }
  // The newest kCapacity ids still forward.
  for (std::size_t i = kRequests - kCapacity; i < kRequests; ++i) {
    EXPECT_TRUE(cluster.report_observation(served[i].result.request_id,
                                           served[i].result.point * 1.1));
  }
  EXPECT_EQ(cluster.metrics().counter("observations_unmatched").value(),
            kRequests - kCapacity);
  EXPECT_EQ(cluster.metrics().counter("observations_forwarded").value(),
            kCapacity);

  // Ledger saw exactly the forwarded observations, nothing more.
  EXPECT_EQ(options.node_options.ledger->snapshot().count, kCapacity);

  // Bank training (node-local, so summed across nodes) matches too:
  // evicted ids trained nothing.
  std::uint64_t trained = 0;
  for (std::size_t n = 0; n < cluster.nodes(); ++n) {
    auto* service = cluster.node(n).service();
    ASSERT_NE(service, nullptr);
    for (const auto& row : service->bank()->snapshot()) {
      trained += row.observations;
    }
  }
  EXPECT_EQ(trained, kCapacity);
}

// Bank and arbiter state is node-local by design: a restarted node comes
// back with a blank bank and re-converges from fresh observations only.
TEST(ClusterFrontend, RestartedNodeRebuildsBankFromFreshObservations) {
  ClusterOptions options = small_cluster(1);
  options.node_options.enable_learning = true;
  ClusterFrontend cluster(options);
  cluster.register_model("sor", family_spec(125));

  auto run_observations = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ClusterResult r = cluster.predict(request_for("sor", 0.6));
      ASSERT_TRUE(r.result.ok()) << r.result.error;
      ASSERT_TRUE(cluster.report_observation(r.result.request_id,
                                             r.result.point * 1.3));
    }
  };

  run_observations(24);
  {
    auto* service = cluster.node(0).service();
    ASSERT_NE(service, nullptr);
    ASSERT_EQ(service->bank()->snapshot().size(), 1u);
    EXPECT_EQ(service->bank()->snapshot()[0].observations, 24u);
    EXPECT_FALSE(service->arbiter()->table().empty());
  }

  cluster.inject({FaultEvent::Kind::kCrash, 0, 0, 0.0});
  cluster.inject({FaultEvent::Kind::kRestart, 0, 0, 0.0});

  // Fresh service, blank learn state: nothing carried over.
  auto* service = cluster.node(0).service();
  ASSERT_NE(service, nullptr);
  EXPECT_TRUE(service->bank()->snapshot().empty());
  EXPECT_TRUE(service->arbiter()->table().empty());
  EXPECT_EQ(service->arbiter()->source("sor"),
            learn::Source::kStructural);

  // And it re-converges from fresh observations alone.
  run_observations(24);
  ASSERT_EQ(service->bank()->snapshot().size(), 1u);
  EXPECT_EQ(service->bank()->snapshot()[0].observations, 24u);
  EXPECT_FALSE(service->arbiter()->table().empty());
}

// --- Golden: routing under the failover plans --------------------------

// Which node answered each request of FailoverAcrossCrashPreservesResult-
// SetBitExact's two fault plans, after how many transport calls, and how
// often a node went down and came back. The pins were taken while
// membership still had a suspect state and a settable down threshold; a
// routing change shows up here as a different digit.
TEST(DserveGolden, FailoverPlansKeepTheirRoutingAndTransitions) {
  constexpr std::size_t kFamilies = 5;
  constexpr int kRequests = 60;
  constexpr std::uint64_t kCrashStep = kRequests / 3;
  constexpr std::uint64_t kRestartStep = 2 * kRequests / 3;
  struct Pinned {
    const char* nodes;     ///< serving node of request i, one digit each
    const char* attempts;  ///< transport calls request i spent
    std::uint64_t down;    ///< node_transitions_down
    std::uint64_t up;      ///< node_transitions_up
  };
  const Pinned kCrash{
      "201002010020100201000010000100001000010000100001000010000100",
      "111111111111111111112111121111111111111111111111111111111111",
      1, 0};
  const Pinned kCrashRestart{
      "201002010020100201000010000100001000010020100201002010020100",
      "111111111111111111112111121111111111111111111111111111111111",
      1, 1};

  const std::size_t victim = [] {
    ClusterFrontend probe(small_cluster());
    register_families(probe, kFamilies);
    return probe.replica_set("family0").front();
  }();
  const auto run = [&](FaultPlan plan, const Pinned& pin,
                       const std::string& what) {
    ClusterFrontend cluster(small_cluster(), std::move(plan));
    register_families(cluster, kFamilies);
    std::string nodes;
    std::string attempts;
    for (int i = 0; i < kRequests; ++i) {
      const ClusterResult served = cluster.predict(request_for(
          "family" + std::to_string(i % kFamilies), 0.55 + 0.01 * (i % 9)));
      EXPECT_TRUE(served.result.ok()) << served.result.error;
      nodes.push_back(static_cast<char>('0' + served.node));
      attempts.push_back(static_cast<char>('0' + served.attempts));
      if (i + 1 == static_cast<int>(kRestartStep)) {
        (void)cluster.heartbeat_tick();
      }
    }
    EXPECT_EQ(nodes, pin.nodes) << what;
    EXPECT_EQ(attempts, pin.attempts) << what;
    EXPECT_EQ(cluster.metrics().counter("node_transitions_down").value(),
              pin.down)
        << what;
    EXPECT_EQ(cluster.metrics().counter("node_transitions_up").value(),
              pin.up)
        << what;
  };

  FaultPlan crash;
  crash.add({FaultEvent::Kind::kCrash, kCrashStep, victim, 0.0});
  run(std::move(crash), kCrash, "crash");

  FaultPlan crash_restart;
  crash_restart.add({FaultEvent::Kind::kCrash, kCrashStep, victim, 0.0});
  crash_restart.add({FaultEvent::Kind::kRestart, kRestartStep, victim, 0.0});
  run(std::move(crash_restart), kCrashRestart, "crash + restart");
}

}  // namespace
}  // namespace sspred::dserve
