#include "dserve/node.hpp"

#include <chrono>
#include <thread>

#include "serve/wire.hpp"
#include "support/error.hpp"

namespace sspred::dserve {

ServingNode::ServingNode(std::size_t index, serve::ServiceOptions options,
                         std::shared_ptr<support::Clock> clock)
    : index_(index),
      options_(std::move(options)),
      clock_(std::move(clock)),
      frames_served_(metrics_.counter("node_frames_served")),
      heartbeats_served_(metrics_.counter("node_heartbeats_served")),
      epoch_installs_(metrics_.counter("node_epoch_installs")),
      bad_frames_(metrics_.counter("node_bad_frames")),
      crashes_(metrics_.counter("node_crashes")),
      restarts_(metrics_.counter("node_restarts")) {
  if (clock_) options_.clock = clock_;
  service_ = std::make_unique<serve::PredictionService>(options_);
  metrics_.add_child("", &service_->metrics());
}

ServingNode::~ServingNode() {
  metrics_.clear_children();  // before the service (and its registry) dies
}

void ServingNode::register_model(const std::string& id,
                                 serve::ModelSpec spec) {
  const std::unique_lock lock(mutex_);
  manifest_.emplace_back(id, spec);
  if (service_) service_->register_model(id, std::move(spec));
}

std::optional<std::vector<std::uint8_t>> ServingNode::handle_frame(
    const std::vector<std::uint8_t>& frame) {
  const std::shared_lock lock(mutex_);
  if (crashed_ || !service_) return std::nullopt;
  // A prefix that disagrees with the frame's size means the bytes were
  // cut or corrupted in transit: decoding what is there would serve a
  // frame its sender never sent.
  if (frame.size() < 4 ||
      serve::frame_length(frame.data()) != frame.size() - 4) {
    bad_frames_.increment();
    return std::nullopt;
  }
  const std::uint8_t* payload = frame.data() + 4;
  const std::size_t size = frame.size() - 4;
  try {
    switch (serve::frame_type(payload, size)) {
      case serve::WireType::kRequest:
        return serve_request(payload, size);
      case serve::WireType::kHeartbeat:
        return serve_heartbeat(payload, size);
      case serve::WireType::kEpochPublish:
        return serve_epoch(payload, size);
      default:
        // Responses/acks flow node -> frontend; receiving one is a
        // protocol violation, not a crash.
        bad_frames_.increment();
        return std::nullopt;
    }
  } catch (const support::Error&) {
    bad_frames_.increment();
    return std::nullopt;
  }
}

std::vector<std::uint8_t> ServingNode::serve_request(
    const std::uint8_t* payload, std::size_t size) {
  auto decoded = serve::decode_request(payload, size);
  const std::int64_t slowdown = slowdown_ns_.load(std::memory_order_relaxed);
  if (slowdown > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(slowdown));
  }
  frames_served_.increment();
  // The transport call is synchronous, so this thread would only wait on
  // a worker: serve the request on it instead.
  const auto result = service_->serve(std::move(decoded.request));
  return serve::encode_response(result, decoded.client_tag);
}

std::vector<std::uint8_t> ServingNode::serve_heartbeat(
    const std::uint8_t* payload, std::size_t size) {
  const std::uint64_t tag = serve::decode_heartbeat(payload, size);
  heartbeats_served_.increment();
  serve::HeartbeatAck ack;
  ack.client_tag = tag;
  const serve::EpochPtr epoch = service_->current_epoch();
  ack.epoch_version = epoch ? epoch->version() : 0;
  ack.queue_depth = 0;  // frames never queue (see the class comment)
  return serve::encode_heartbeat_ack(ack);
}

std::vector<std::uint8_t> ServingNode::serve_epoch(
    const std::uint8_t* payload, std::size_t size) {
  auto frame = serve::decode_epoch_publish(payload, size);
  auto epoch = std::make_shared<const serve::BindingsEpoch>(
      frame.version, std::move(frame.bindings));
  service_->publish_epoch(std::move(epoch));
  epoch_installs_.increment();
  serve::EpochAck ack;
  ack.client_tag = frame.client_tag;
  ack.version = frame.version;
  return serve::encode_epoch_ack(ack);
}

void ServingNode::crash() {
  // Exclusive lock: waits for in-flight frames to drain (their service
  // is still running, so they complete), then fail-stops. The service
  // object survives until restart() so draining never races teardown.
  const std::unique_lock lock(mutex_);
  if (crashed_) return;
  crashed_ = true;
  crashes_.increment();
}

void ServingNode::restart() {
  const std::unique_lock lock(mutex_);
  metrics_.remove_child("");  // old registry dies with the old service
  service_.reset();           // joins workers; no frames are in flight
  service_ = std::make_unique<serve::PredictionService>(options_);
  for (const auto& [id, spec] : manifest_) {
    service_->register_model(id, spec);
  }
  metrics_.add_child("", &service_->metrics());
  crashed_ = false;
  slowdown_ns_.store(0, std::memory_order_relaxed);
  restarts_.increment();
}

bool ServingNode::crashed() const {
  const std::shared_lock lock(mutex_);
  return crashed_;
}

void ServingNode::set_slowdown(double seconds) noexcept {
  slowdown_ns_.store(
      seconds <= 0.0 ? 0 : static_cast<std::int64_t>(seconds * 1e9),
      std::memory_order_relaxed);
}

std::uint64_t ServingNode::epoch_version() const {
  const std::shared_lock lock(mutex_);
  if (crashed_ || !service_) return 0;
  const serve::EpochPtr epoch = service_->current_epoch();
  return epoch ? epoch->version() : 0;
}

bool ServingNode::report_observation(std::uint64_t request_id,
                                     double observed_seconds) {
  const std::shared_lock lock(mutex_);
  if (crashed_ || !service_) return false;
  return service_->report_observation(request_id, observed_seconds);
}

std::uint64_t ServingNode::service_counter(const std::string& name) const {
  const std::shared_lock lock(mutex_);
  if (!service_) return 0;
  return service_->metrics().counter(name).value();
}

serve::PredictionService* ServingNode::service() {
  const std::shared_lock lock(mutex_);
  return crashed_ ? nullptr : service_.get();
}

}  // namespace sspred::dserve
