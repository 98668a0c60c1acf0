#include "net/ethernet.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace sspred::net {

stats::ModalProcessSpec dedicated_availability() {
  stats::ModalProcessSpec spec;
  stats::ModeState mode;
  mode.shape.center = 0.999;
  mode.shape.sd = 1e-4;
  mode.mean_dwell = 1e9;
  spec.modes.push_back(mode);
  spec.lo = 0.9;
  spec.hi = 1.0;
  return spec;
}

SharedEthernet::SharedEthernet(sim::Engine& engine, EthernetSpec spec,
                               std::uint64_t seed)
    : engine_(engine),
      spec_(std::move(spec)),
      avail_process_(spec_.availability, seed),
      avail_(avail_process_.next(spec_.availability_interval)) {
  SSPRED_REQUIRE(spec_.nominal_bandwidth > 0.0,
                 "nominal bandwidth must be positive");
  SSPRED_REQUIRE(spec_.latency >= 0.0, "latency must be non-negative");
  SSPRED_REQUIRE(spec_.availability_interval > 0.0,
                 "availability interval must be positive");
}

double SharedEthernet::per_transfer_rate() const noexcept {
  if (active_.empty()) return 0.0;
  return spec_.nominal_bandwidth * avail_ /
         static_cast<double>(active_.size());
}

void SharedEthernet::progress() {
  const sim::Time now = engine_.now();
  const double dt = now - last_progress_;
  if (dt > 0.0 && !active_.empty()) {
    const double delta = per_transfer_rate() * dt;
    for (auto& x : active_) x.remaining = std::max(0.0, x.remaining - delta);
  }
  last_progress_ = now;
}

void SharedEthernet::reschedule() {
  if (completion_event_ != 0) {
    engine_.cancel(completion_event_);
    completion_event_ = 0;
  }
  if (tick_event_ != 0) {
    engine_.cancel(tick_event_);
    tick_event_ = 0;
  }
  if (active_.empty()) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& x : active_) min_remaining = std::min(min_remaining, x.remaining);
  const double rate = per_transfer_rate();
  const sim::Time eta = std::max(min_remaining, 0.0) / rate;
  completion_event_ = engine_.schedule_in(eta, [this] { on_completion_due(); });
  tick_event_ = engine_.schedule_in(spec_.availability_interval,
                                    [this] { on_tick(); });
}

void SharedEthernet::on_completion_due() {
  completion_event_ = 0;
  progress();
  const double rate = per_transfer_rate();
  std::vector<std::function<void()>> callbacks;
  for (auto it = active_.begin(); it != active_.end();) {
    if (transfer_delivered(it->remaining, rate, engine_.now())) {
      delivered_ += it->total;
      callbacks.push_back(std::move(it->on_complete));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  reschedule();
  // Run callbacks last: they may start new transfers, which re-enters
  // progress()/reschedule() safely now that state is consistent.
  for (auto& cb : callbacks) cb();
}

void SharedEthernet::on_tick() {
  tick_event_ = 0;
  progress();
  avail_ = avail_process_.next(spec_.availability_interval);
  reschedule();
}

TransferId SharedEthernet::start_transfer(support::Bytes bytes,
                                          std::function<void()> on_complete) {
  SSPRED_REQUIRE(bytes > 0.0, "transfer must move at least one byte");
  progress();
  if (active_.empty()) {
    // Fresh activity after idle: resample cross-traffic.
    avail_ = avail_process_.next(spec_.availability_interval);
  }
  const TransferId id = next_id_++;
  active_.push_back(Xfer{id, bytes, bytes, std::move(on_complete)});
  reschedule();
  return id;
}

}  // namespace sspred::net
