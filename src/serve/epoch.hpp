// Versioned load-bindings epochs: consistent NWS snapshots for serving.
//
// A prediction parameterized from live NWS forecasts must not see loads
// from two different instants — half the hosts "now", half from five
// seconds ago — and two requests coalesced into one evaluation must agree
// on every binding. BindingsEpoch is the unit of that consistency: an
// immutable resource->value map stamped with a monotonically increasing
// version. The NwsBridge turns the mutable nws::Service into a sequence
// of epochs: publish() forecasts every tracked resource once and installs
// the result; in-flight requests keep the shared_ptr of the epoch they
// were admitted under, so a publish never mutates what a worker is
// reading.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nws/service.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::serve {

/// Immutable snapshot of stochastic load bindings, by resource name.
class BindingsEpoch {
 public:
  BindingsEpoch(std::uint64_t version,
                std::map<std::string, stoch::StochasticValue> values)
      : version_(version), values_(std::move(values)) {}

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] bool contains(const std::string& resource) const {
    return values_.contains(resource);
  }

  /// Throws support::Error naming the resource and the epoch version when
  /// the resource was not part of the snapshot.
  [[nodiscard]] const stoch::StochasticValue& lookup(
      const std::string& resource) const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// The full snapshot, for fan-out layers that re-encode the epoch
  /// (the cluster frontend ships it to nodes over the wire codec).
  [[nodiscard]] const std::map<std::string, stoch::StochasticValue>& values()
      const noexcept {
    return values_;
  }

 private:
  std::uint64_t version_;
  std::map<std::string, stoch::StochasticValue> values_;
};

using EpochPtr = std::shared_ptr<const BindingsEpoch>;

/// Publishes consistent epochs from a live nws::Service.
///
/// Single conceptual writer (whoever calls publish()), many readers
/// (current() from any thread). The bridge reads the service under its
/// reader/writer lock resource by resource; the epoch itself is the
/// atomicity boundary requests rely on.
class NwsBridge {
 public:
  /// `resources` are the NWS resource names to snapshot each publish.
  NwsBridge(const nws::Service& service, std::vector<std::string> resources);

  /// Forecasts every tracked resource and installs the result as the new
  /// current epoch. Resources with insufficient history are skipped (a
  /// request needing one gets a structured lookup error, not a crash).
  /// Returns the published epoch.
  EpochPtr publish();

  /// The most recently published epoch; null before the first publish().
  [[nodiscard]] EpochPtr current() const;

  [[nodiscard]] const std::vector<std::string>& resources() const noexcept {
    return resources_;
  }

 private:
  const nws::Service& service_;
  std::vector<std::string> resources_;
  mutable std::mutex mutex_;  ///< guards current_ and next_version_
  EpochPtr current_;
  std::uint64_t next_version_ = 1;
};

}  // namespace sspred::serve
