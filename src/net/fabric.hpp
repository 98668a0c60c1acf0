// Fabric — the interface the message-passing layer sends through.
//
// Two implementations ship: the paper's shared 10 Mbit ethernet segment
// (SharedEthernet: every transfer contends with every other and with
// cross-traffic) and a switched full-duplex network (SwitchedEthernet:
// contention only at each host's NIC, max-min fair rates).
#pragma once

#include <cstdint>
#include <functional>

#include "support/units.hpp"

namespace sspred::net {

using TransferId = std::uint64_t;

/// Remaining bytes at or below which a transfer counts as delivered.
inline constexpr support::Bytes kRemainderEpsilon = 1e-6;

/// The fabrics' completion rule. A transfer that has progressed at `rate`
/// up to `now` is delivered when its remaining bytes are at most the
/// epsilon, or when the time they still need no longer advances the clock.
/// Rounding of the clock leaves about rate·ulp(now)/2 bytes undelivered;
/// once ulp(now) is large (from about 16,000 s of virtual time on) that
/// residual can exceed the epsilon and still need less than half an ulp,
/// so without the second clause its completion would fall due at `now`
/// again, forever.
[[nodiscard]] inline bool transfer_delivered(support::Bytes remaining,
                                             support::BytesPerSecond rate,
                                             support::Seconds now) noexcept {
  return remaining <= kRemainderEpsilon || now + remaining / rate == now;
}

class Fabric {
 public:
  virtual ~Fabric() = default;

  /// Starts a transfer of `bytes` from host `src` to host `dst`;
  /// `on_complete` fires (as an engine event) when the last byte lands.
  /// Latency is NOT included — callers add latency() themselves.
  virtual TransferId send(int src, int dst, support::Bytes bytes,
                          std::function<void()> on_complete) = 0;

  /// Per-message latency to add on top of the bandwidth term.
  [[nodiscard]] virtual support::Seconds latency() const = 0;

  /// Nominal point-to-point bandwidth (for models), bytes/second.
  [[nodiscard]] virtual support::BytesPerSecond nominal_bandwidth() const = 0;
};

}  // namespace sspred::net
