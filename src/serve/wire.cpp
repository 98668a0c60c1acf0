#include "serve/wire.hpp"

#include <cstring>

#include "support/error.hpp"

namespace sspred::serve {

namespace {

// --- Encoding ---------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  SSPRED_REQUIRE(s.size() <= 0xffffffffu, "wire string too long");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_value(std::vector<std::uint8_t>& out,
               const stoch::StochasticValue& v) {
  put_f64(out, v.mean());
  put_f64(out, v.halfwidth());
}

/// Prepends the length prefix and the common header.
std::vector<std::uint8_t> begin_frame(WireType type, std::uint64_t tag) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0);  // length, patched by end_frame
  put_u16(out, kWireMagic);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u64(out, tag);
  return out;
}

void end_frame(std::vector<std::uint8_t>& out) {
  const auto payload = static_cast<std::uint32_t>(out.size() - 4);
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
}

// --- Decoding ---------------------------------------------------------

/// Bounds-checked little-endian reader over one frame's payload.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2, "u16");
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n, "string bytes");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] stoch::StochasticValue value() {
    const double mean = f64();
    const double half = f64();
    return {mean, half};
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }

  /// Guards a declared element count against the bytes actually present
  /// BEFORE any reserve()/loop: each element needs at least
  /// `min_bytes_each`, so a forged count can never balloon an allocation
  /// past the frame it arrived in.
  void need_count(std::uint32_t count, std::size_t min_bytes_each,
                  const char* what) const {
    if (static_cast<std::uint64_t>(count) * min_bytes_each > remaining()) {
      throw support::Error(std::string("wire: declared ") + what +
                           " count " + std::to_string(count) +
                           " exceeds frame size");
    }
  }

  void expect_done(const char* what) const {
    if (pos_ != size_) {
      throw support::Error(std::string("wire: trailing bytes after ") + what);
    }
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) {
      throw support::Error(std::string("wire: truncated frame reading ") +
                           what);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint8_t decode_preamble(Reader& r) {
  const std::uint16_t magic = r.u16();
  if (magic != kWireMagic) {
    throw support::Error("wire: bad magic 0x" + std::to_string(magic));
  }
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw support::Error("wire: unsupported protocol version " +
                         std::to_string(version) + " (speaking " +
                         std::to_string(kWireVersion) + ")");
  }
  return r.u8();  // message type
}

std::uint64_t decode_header(Reader& r, WireType expected) {
  const std::uint8_t type = decode_preamble(r);
  if (type != static_cast<std::uint8_t>(expected)) {
    throw support::Error("wire: unexpected message type " +
                         std::to_string(type));
  }
  return r.u64();  // client tag
}

}  // namespace

std::uint32_t frame_length(const std::uint8_t* prefix) noexcept {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  return len;
}

WireType frame_type(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  const std::uint8_t type = decode_preamble(r);
  if (type < static_cast<std::uint8_t>(WireType::kRequest) ||
      type > static_cast<std::uint8_t>(WireType::kEpochAck)) {
    throw support::Error("wire: unknown message type " +
                         std::to_string(type));
  }
  return static_cast<WireType>(type);
}

std::vector<std::uint8_t> encode_request(const PredictRequest& request,
                                         std::uint64_t client_tag) {
  auto out = begin_frame(WireType::kRequest, client_tag);
  put_string(out, request.model_id);
  put_u8(out, static_cast<std::uint8_t>(request.mode));
  SSPRED_REQUIRE(request.loads.size() <= 0xffffffffu &&
                     request.resources.size() <= 0xffffffffu,
                 "wire request binds too many loads");
  put_u32(out, static_cast<std::uint32_t>(request.loads.size()));
  for (const auto& v : request.loads) put_value(out, v);
  put_u32(out, static_cast<std::uint32_t>(request.resources.size()));
  for (const auto& s : request.resources) put_string(out, s);
  put_value(out, request.bwavail);
  put_string(out, request.bwavail_resource);
  put_u64(out, request.trials);
  put_u64(out, request.seed);
  put_f64(out, request.precision);
  put_u8(out, request.precision_relative ? 1 : 0);
  put_u64(out, request.min_trials);
  end_frame(out);
  return out;
}

std::vector<std::uint8_t> encode_response(const PredictResult& result,
                                          std::uint64_t client_tag) {
  auto out = begin_frame(WireType::kResponse, client_tag);
  put_u8(out, static_cast<std::uint8_t>(result.status));
  put_string(out, result.error);
  put_value(out, result.value);
  put_f64(out, result.point);
  put_u64(out, result.request_id);
  put_u64(out, result.epoch_version);
  put_u64(out, static_cast<std::uint64_t>(result.batch_size));
  put_f64(out, result.latency_seconds);
  put_u8(out, result.source);
  put_u64(out, static_cast<std::uint64_t>(result.mc_trials));
  put_f64(out, result.mc_ci_halfwidth);
  put_u8(out, result.precision_met ? 1 : 0);
  end_frame(out);
  return out;
}

DecodedRequest decode_request(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  DecodedRequest out;
  out.client_tag = decode_header(r, WireType::kRequest);
  out.request.model_id = r.str();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(Mode::kMonteCarlo)) {
    throw support::Error("wire: unknown prediction mode " +
                         std::to_string(mode));
  }
  out.request.mode = static_cast<Mode>(mode);
  const std::uint32_t loads = r.u32();
  r.need_count(loads, 16, "load");  // 2 doubles per value
  out.request.loads.reserve(loads);
  for (std::uint32_t i = 0; i < loads; ++i) {
    out.request.loads.push_back(r.value());
  }
  const std::uint32_t resources = r.u32();
  r.need_count(resources, 4, "resource");  // length prefix per string
  out.request.resources.reserve(resources);
  for (std::uint32_t i = 0; i < resources; ++i) {
    out.request.resources.push_back(r.str());
  }
  out.request.bwavail = r.value();
  out.request.bwavail_resource = r.str();
  out.request.trials = r.u64();
  out.request.seed = r.u64();
  out.request.precision = r.f64();
  out.request.precision_relative = r.u8() != 0;
  out.request.min_trials = r.u64();
  r.expect_done("request");
  return out;
}

DecodedResponse decode_response(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  DecodedResponse out;
  out.client_tag = decode_header(r, WireType::kResponse);
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(PredictResult::Status::kRejected)) {
    throw support::Error("wire: unknown result status " +
                         std::to_string(status));
  }
  out.result.status = static_cast<PredictResult::Status>(status);
  out.result.error = r.str();
  out.result.value = r.value();
  out.result.point = r.f64();
  out.result.request_id = r.u64();
  out.result.epoch_version = r.u64();
  out.result.batch_size = r.u64();
  out.result.latency_seconds = r.f64();
  out.result.source = r.u8();
  out.result.mc_trials = r.u64();
  out.result.mc_ci_halfwidth = r.f64();
  out.result.precision_met = r.u8() != 0;
  r.expect_done("response");
  return out;
}

std::vector<std::uint8_t> encode_heartbeat(std::uint64_t client_tag) {
  auto out = begin_frame(WireType::kHeartbeat, client_tag);
  end_frame(out);
  return out;
}

std::vector<std::uint8_t> encode_heartbeat_ack(const HeartbeatAck& ack) {
  auto out = begin_frame(WireType::kHeartbeatAck, ack.client_tag);
  put_u64(out, ack.epoch_version);
  put_u64(out, ack.queue_depth);
  end_frame(out);
  return out;
}

std::vector<std::uint8_t> encode_epoch_publish(const EpochFrame& frame) {
  auto out = begin_frame(WireType::kEpochPublish, frame.client_tag);
  put_u64(out, frame.version);
  SSPRED_REQUIRE(frame.bindings.size() <= 0xffffffffu,
                 "wire epoch carries too many bindings");
  put_u32(out, static_cast<std::uint32_t>(frame.bindings.size()));
  for (const auto& [name, value] : frame.bindings) {
    put_string(out, name);
    put_value(out, value);
  }
  end_frame(out);
  return out;
}

std::vector<std::uint8_t> encode_epoch_ack(const EpochAck& ack) {
  auto out = begin_frame(WireType::kEpochAck, ack.client_tag);
  put_u64(out, ack.version);
  end_frame(out);
  return out;
}

std::uint64_t decode_heartbeat(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  const std::uint64_t tag = decode_header(r, WireType::kHeartbeat);
  r.expect_done("heartbeat");
  return tag;
}

HeartbeatAck decode_heartbeat_ack(const std::uint8_t* data,
                                  std::size_t size) {
  Reader r(data, size);
  HeartbeatAck ack;
  ack.client_tag = decode_header(r, WireType::kHeartbeatAck);
  ack.epoch_version = r.u64();
  ack.queue_depth = r.u64();
  r.expect_done("heartbeat ack");
  return ack;
}

EpochFrame decode_epoch_publish(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  EpochFrame out;
  out.client_tag = decode_header(r, WireType::kEpochPublish);
  out.version = r.u64();
  const std::uint32_t count = r.u32();
  r.need_count(count, 4 + 16, "binding");  // name prefix + value
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    auto value = r.value();
    out.bindings.insert_or_assign(std::move(name), value);
  }
  r.expect_done("epoch publish");
  return out;
}

EpochAck decode_epoch_ack(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  EpochAck ack;
  ack.client_tag = decode_header(r, WireType::kEpochAck);
  ack.version = r.u64();
  r.expect_done("epoch ack");
  return ack;
}

void FrameBuffer::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: only when the dead prefix dominates, so a busy
  // connection isn't memmoving per frame.
  if (consumed_ > 0 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<std::vector<std::uint8_t>> FrameBuffer::take_frame() {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t len = frame_length(buffer_.data() + consumed_);
  if (len > max_frame_bytes_) {
    throw support::Error("wire: frame length " + std::to_string(len) +
                         " exceeds cap " + std::to_string(max_frame_bytes_));
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  std::vector<std::uint8_t> frame(
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4),
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + len;
  return frame;
}

}  // namespace sspred::serve
