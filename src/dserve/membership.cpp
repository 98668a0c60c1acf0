#include "dserve/membership.hpp"

#include "support/error.hpp"

namespace sspred::dserve {

Membership::Membership(std::size_t nodes, serve::MetricsRegistry& registry,
                       std::uint64_t down_after)
    : nodes_(nodes),
      down_after_(down_after == 0 ? 1 : down_after),
      transitions_down_(registry.counter("node_transitions_down")),
      transitions_up_(registry.counter("node_transitions_up")) {
  if (nodes == 0) {
    throw support::Error("membership: need at least one node");
  }
}

void Membership::transition(NodeHealth& health, NodeState to) {
  if (health.state == to) return;
  (to == NodeState::kDown ? transitions_down_ : transitions_up_).increment();
  health.state = to;
}

void Membership::record_success(std::size_t node) {
  const std::lock_guard lock(mutex_);
  NodeHealth& h = nodes_.at(node);
  ++h.successes;
  h.consecutive_failures = 0;
  // A served request is proof of life, whatever the state said.
  transition(h, NodeState::kUp);
}

void Membership::record_failure(std::size_t node) {
  const std::lock_guard lock(mutex_);
  NodeHealth& h = nodes_.at(node);
  ++h.failures;
  ++h.consecutive_failures;
  if (h.consecutive_failures >= down_after_) {
    transition(h, NodeState::kDown);
  }
}

void Membership::heartbeat_ok(std::size_t node, std::uint64_t epoch_version) {
  const std::lock_guard lock(mutex_);
  NodeHealth& h = nodes_.at(node);
  h.heartbeat_misses = 0;
  h.epoch_version = epoch_version;
  if (h.state == NodeState::kDown) {
    // Back from the dead: give it a clean slate so one stale failure
    // streak doesn't immediately re-down it.
    h.consecutive_failures = 0;
    transition(h, NodeState::kUp);
  }
}

void Membership::heartbeat_missed(std::size_t node) {
  const std::lock_guard lock(mutex_);
  NodeHealth& h = nodes_.at(node);
  ++h.heartbeat_misses;
  if (h.heartbeat_misses >= down_after_) {
    transition(h, NodeState::kDown);
  }
}

void Membership::set_epoch_version(std::size_t node, std::uint64_t version) {
  const std::lock_guard lock(mutex_);
  nodes_.at(node).epoch_version = version;
}

NodeState Membership::state(std::size_t node) const {
  const std::lock_guard lock(mutex_);
  return nodes_.at(node).state;
}

NodeHealth Membership::health(std::size_t node) const {
  const std::lock_guard lock(mutex_);
  return nodes_.at(node);
}

std::size_t Membership::up_count() const {
  const std::lock_guard lock(mutex_);
  std::size_t up = 0;
  for (const NodeHealth& h : nodes_) {
    if (h.state != NodeState::kDown) ++up;
  }
  return up;
}

}  // namespace sspred::dserve
