// Frontend wire protocol: a versioned, length-prefixed binary codec for
// PredictRequest/PredictResult.
//
// The serving stack's frontend layer is transport-agnostic: this codec
// only defines BYTES. A frame is
//
//   u32   payload length (little-endian, excludes these 4 bytes)
//   u16   magic 0x5350 ("SP")
//   u8    protocol version (kWireVersion)
//   u8    message type (1 = request, 2 = response)
//   u64   client tag, echoed verbatim in the response (the client's
//         correlation handle for pipelined requests)
//   ...   body (request or response fields, fixed field order)
//
// and travels over anything that moves bytes in order — an in-process
// pipe, a loopback socket pair (the load generator and tests exercise
// both), or a real network transport a deployment wires up. All integers
// are little-endian; doubles are IEEE binary64 bit patterns. Strings and
// vectors are u32-length-prefixed.
//
// Decoding is strict: a bad magic, unknown version, wrong message type,
// truncated body, or trailing garbage throws support::Error with a
// structured message — a malformed client can never crash the stack or
// smuggle a half-parsed request into it. FrameBuffer incrementally
// reassembles frames from arbitrary byte chunks (the "read whatever the
// socket gives you" loop) with a configurable frame size cap so a
// corrupt length prefix cannot balloon memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::serve {

inline constexpr std::uint16_t kWireMagic = 0x5350;  // "SP"
/// Version 2 appended the serving-source byte to the response body
/// (PredictResult::source). Version 3 appended the adaptive-precision
/// fields: precision/precision_relative/min_trials to the request body,
/// mc_trials/mc_ci_halfwidth/precision_met to the response body.
/// Decoding is strict per version.
inline constexpr std::uint8_t kWireVersion = 3;

enum class WireType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  // Cluster control plane (src/dserve/): the frontend speaks to its
  // nodes in the same framed codec the data plane uses, so one
  // FrameBuffer + one strictness contract covers every byte a node
  // ever receives.
  kHeartbeat = 3,     ///< frontend -> node liveness/epoch probe
  kHeartbeatAck = 4,  ///< node -> frontend probe reply
  kEpochPublish = 5,  ///< frontend -> node bindings-epoch fan-out
  kEpochAck = 6,      ///< node -> frontend epoch install confirmation
};

/// Validated peek at a complete frame payload's message type: checks the
/// magic and protocol version, throws support::Error on malformation or
/// an unknown type byte. Dispatchers (a ServingNode demultiplexing its
/// inbound stream) call this before the type-specific decoder.
[[nodiscard]] WireType frame_type(const std::uint8_t* data, std::size_t size);

/// Payload length a frame's 4-byte little-endian prefix declares.
[[nodiscard]] std::uint32_t frame_length(const std::uint8_t* prefix) noexcept;

/// One frame's payload, ready to send (length prefix included).
[[nodiscard]] std::vector<std::uint8_t> encode_request(
    const PredictRequest& request, std::uint64_t client_tag);
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const PredictResult& result, std::uint64_t client_tag);

struct DecodedRequest {
  PredictRequest request;
  std::uint64_t client_tag = 0;
};
struct DecodedResponse {
  PredictResult result;
  std::uint64_t client_tag = 0;
};

/// Decodes one complete frame (WITHOUT the 4-byte length prefix; the
/// FrameBuffer strips it). Throws support::Error on any malformation.
[[nodiscard]] DecodedRequest decode_request(const std::uint8_t* data,
                                            std::size_t size);
[[nodiscard]] DecodedResponse decode_response(const std::uint8_t* data,
                                              std::size_t size);

// --- Cluster control frames (heartbeat / epoch fan-out) ----------------

/// Node's reply to a heartbeat probe: its current bindings-epoch version
/// (0: none installed) and admission backlog — the frontend's raw health
/// and rebalance signals.
struct HeartbeatAck {
  std::uint64_t client_tag = 0;
  std::uint64_t epoch_version = 0;
  std::uint64_t queue_depth = 0;
};

/// One bindings epoch on the wire: the frontend fans a published epoch
/// out to every node as (version, resource -> value) so a node restarted
/// from scratch can be rebalanced onto the cluster's current snapshot.
struct EpochFrame {
  std::uint64_t client_tag = 0;
  std::uint64_t version = 0;
  std::map<std::string, stoch::StochasticValue> bindings;
};

struct EpochAck {
  std::uint64_t client_tag = 0;
  std::uint64_t version = 0;  ///< version the node installed
};

[[nodiscard]] std::vector<std::uint8_t> encode_heartbeat(
    std::uint64_t client_tag);
[[nodiscard]] std::vector<std::uint8_t> encode_heartbeat_ack(
    const HeartbeatAck& ack);
[[nodiscard]] std::vector<std::uint8_t> encode_epoch_publish(
    const EpochFrame& frame);
[[nodiscard]] std::vector<std::uint8_t> encode_epoch_ack(const EpochAck& ack);

/// Control-frame decoders; same strictness contract as the data plane
/// (payload without the length prefix, support::Error on malformation).
[[nodiscard]] std::uint64_t decode_heartbeat(const std::uint8_t* data,
                                             std::size_t size);
[[nodiscard]] HeartbeatAck decode_heartbeat_ack(const std::uint8_t* data,
                                                std::size_t size);
[[nodiscard]] EpochFrame decode_epoch_publish(const std::uint8_t* data,
                                              std::size_t size);
[[nodiscard]] EpochAck decode_epoch_ack(const std::uint8_t* data,
                                        std::size_t size);

/// Incremental frame reassembly: feed byte chunks as they arrive,
/// take_frame() yields each complete payload (length prefix stripped) in
/// order. Throws support::Error when a length prefix exceeds the cap.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::size_t max_frame_bytes = 1u << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// Next complete frame payload, or nullopt when more bytes are needed.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> take_frame();

  /// Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
};

}  // namespace sspred::serve
