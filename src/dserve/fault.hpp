// Fault injection for the simulated cluster.
//
// The paper's production environments lose machines, slow down, and come
// back; the serving tier must degrade predictably under exactly those
// faults. This header gives the cluster a deterministic fault model:
//
//   FaultPlan  — a schedule of fault events keyed by the frontend's
//                request-step counter (NOT wall-clock), so a fixed plan
//                against a fixed request stream reproduces the same
//                failure history on every run — the property the
//                failover-determinism tests pin.
//   FaultyLink — a Transport decorator that injects LINK faults (drop
//                the next N frames, add a fixed delay per frame) between
//                the frontend and one node. NODE faults (crash, restart,
//                slowdown) act on the ServingNode itself; the frontend
//                applies both kinds from the plan.
//
// Plans parse from a compact spec (the `sspred_cli cluster --faults` flag):
//
//   crash@100:1            crash node 1 at step 100
//   restart@300:1          restart node 1 (fresh state) at step 300
//   slow@50:2:0.002        from step 50, node 2 serves 2ms slower
//   drop@10:0:5            at step 10, node 0's link eats the next 5 frames
//   delay@20:1:0.001       from step 20, node 1's link adds 1ms per frame
//
// joined with commas: "crash@100:1,restart@300:1".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dserve/transport.hpp"

namespace sspred::dserve {

struct FaultEvent {
  enum class Kind {
    kCrash,    ///< node fail-stops (new frames unanswered; state lost)
    kRestart,  ///< node comes back empty (no epoch, cold caches)
    kSlow,     ///< node adds `param` seconds of service time per frame
    kDrop,     ///< link swallows the next `param` frames
    kDelay,    ///< link adds `param` seconds of latency per frame
  };
  Kind kind = Kind::kCrash;
  std::uint64_t step = 0;  ///< frontend request step the event fires at
  std::size_t node = 0;
  double param = 0.0;
};

/// An ordered, consumable schedule of fault events. Not thread-safe by
/// itself; the frontend serializes take_due() under its fault mutex.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the comma-joined spec grammar above. Throws support::Error
  /// naming the offending token on any malformation.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  void add(FaultEvent event);

  /// Removes and returns every not-yet-fired event with step <= `step`,
  /// in schedule order.
  [[nodiscard]] std::vector<FaultEvent> take_due(std::uint64_t step);

  [[nodiscard]] bool empty() const noexcept { return next_ >= events_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return events_.size() - next_;
  }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<FaultEvent> events_;  ///< sorted by (step, insertion)
  std::size_t next_ = 0;            ///< first unfired event
};

/// Transport decorator injecting link faults between the frontend and
/// one node. Thread-safe: faults are armed from the fault-application
/// path while client threads stream calls through.
class FaultyLink final : public Transport {
 public:
  /// `inner` must outlive the link.
  explicit FaultyLink(Transport& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> call(
      const std::vector<std::uint8_t>& frame) override;

  /// Arms the link to swallow the next `frames` calls (cumulative).
  void drop_next(std::uint64_t frames) noexcept {
    drop_remaining_.fetch_add(frames, std::memory_order_relaxed);
  }
  /// Fixed extra latency added to every subsequent call (0: none).
  void set_delay(double seconds) noexcept;

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delayed() const noexcept {
    return delayed_.load(std::memory_order_relaxed);
  }

 private:
  Transport& inner_;
  std::atomic<std::int64_t> drop_remaining_{0};
  std::atomic<std::int64_t> delay_ns_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delayed_{0};
};

}  // namespace sspred::dserve
