// Per-node health tracking for the cluster frontend.
//
// Two signals feed it, in the spirit of the belief-net bottleneck
// diagnosis that motivates per-node health state (PAPERS.md, arXiv
// 1302.4932): explicit heartbeat probes (liveness + the node's installed
// epoch version) and the outcome of every routed request (the passive
// signal that catches a node that answers probes but fails work). The
// derived state machine has two states:
//
//   kUp   — answering; tried in replica-set order
//   kDown — `down_after` consecutive transport failures or missed
//           heartbeats; sunk to the back of the failover order, probed
//           by heartbeats, and resurrected by the first success
//
// Transitions are counted into the frontend's registry
// (node_transitions_down / node_transitions_up). All methods are
// thread-safe; request outcomes race benignly (the counts are a health
// signal, not an accounting ledger).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/metrics.hpp"

namespace sspred::dserve {

enum class NodeState {
  kUp,
  kDown,
};

struct NodeHealth {
  NodeState state = NodeState::kUp;
  std::uint64_t epoch_version = 0;  ///< last version the node reported
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t heartbeat_misses = 0;  ///< consecutive
};

class Membership {
 public:
  /// `registry` receives the transition counters; it must outlive the
  /// membership. `down_after` is the consecutive failures (or missed
  /// heartbeats) that turn a node kDown.
  Membership(std::size_t nodes, serve::MetricsRegistry& registry,
             std::uint64_t down_after);

  /// A routed request completed on `node`. Resurrects a kDown node (the
  /// failover path may have reached it as a last resort).
  void record_success(std::size_t node);
  /// The transport to `node` failed a request.
  void record_failure(std::size_t node);

  /// Heartbeat reply carrying the node's installed epoch version.
  void heartbeat_ok(std::size_t node, std::uint64_t epoch_version);
  void heartbeat_missed(std::size_t node);

  /// Records that the frontend pushed epoch `version` to `node` and the
  /// node acked it (epoch fan-out and rebalance both land here).
  void set_epoch_version(std::size_t node, std::uint64_t version);

  [[nodiscard]] NodeState state(std::size_t node) const;
  [[nodiscard]] NodeHealth health(std::size_t node) const;
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t up_count() const;

 private:
  /// Applies a state change, counting the down/up transition. Caller
  /// holds mutex_.
  void transition(NodeHealth& health, NodeState to);

  mutable std::mutex mutex_;
  std::vector<NodeHealth> nodes_;
  std::uint64_t down_after_;
  serve::Counter& transitions_down_;
  serve::Counter& transitions_up_;
};

}  // namespace sspred::dserve
