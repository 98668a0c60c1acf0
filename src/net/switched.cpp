#include "net/switched.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace sspred::net {

SwitchedEthernet::SwitchedEthernet(sim::Engine& engine, SwitchedSpec spec)
    : engine_(engine), spec_(spec), link_count_(2 * spec.hosts) {
  SSPRED_REQUIRE(spec_.hosts >= 1, "switched network needs hosts");
  SSPRED_REQUIRE(spec_.link_bandwidth > 0.0,
                 "link bandwidth must be positive");
  SSPRED_REQUIRE(spec_.latency >= 0.0, "latency must be non-negative");
}

double SwitchedEthernet::transfer_rate(TransferId id) const noexcept {
  for (const auto& x : active_) {
    if (x.id == id) return x.rate;
  }
  return 0.0;
}

void SwitchedEthernet::progress() {
  const sim::Time now = engine_.now();
  const double dt = now - last_progress_;
  if (dt > 0.0) {
    for (auto& x : active_) {
      x.remaining = std::max(0.0, x.remaining - x.rate * dt);
    }
  }
  last_progress_ = now;
}

void SwitchedEthernet::allocate_rates() {
  // Progressive filling: raise all unfrozen transfers together until some
  // link saturates; freeze that link's transfers at its fair share;
  // repeat. Terminates in at most link_count_ rounds.
  std::vector<double> capacity(link_count_, spec_.link_bandwidth);
  std::vector<std::size_t> load(link_count_, 0);
  for (auto& x : active_) {
    x.rate = 0.0;
    ++load[x.egress];
    ++load[x.ingress];
  }
  std::vector<bool> frozen(active_.size(), false);
  std::size_t remaining = active_.size();
  while (remaining > 0) {
    // The bottleneck link: smallest capacity / unfrozen-transfer count.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_count_; ++l) {
      if (load[l] > 0) {
        bottleneck_share = std::min(
            bottleneck_share, capacity[l] / static_cast<double>(load[l]));
      }
    }
    // Freeze every transfer crossing a link that saturates at this share.
    bool froze_any = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (frozen[i]) continue;
      auto& x = active_[i];
      const bool saturated_egress =
          capacity[x.egress] / static_cast<double>(load[x.egress]) <=
          bottleneck_share * (1.0 + 1e-12);
      const bool saturated_ingress =
          capacity[x.ingress] / static_cast<double>(load[x.ingress]) <=
          bottleneck_share * (1.0 + 1e-12);
      if (saturated_egress || saturated_ingress) {
        x.rate = bottleneck_share;
        frozen[i] = true;
        froze_any = true;
        --remaining;
        capacity[x.egress] -= x.rate;
        capacity[x.ingress] -= x.rate;
        --load[x.egress];
        --load[x.ingress];
      }
    }
    SSPRED_REQUIRE(froze_any, "max-min allocation failed to progress");
  }
}

void SwitchedEthernet::reschedule() {
  if (completion_event_ != 0) {
    engine_.cancel(completion_event_);
    completion_event_ = 0;
  }
  if (active_.empty()) return;
  allocate_rates();
  double eta = std::numeric_limits<double>::infinity();
  for (const auto& x : active_) {
    eta = std::min(eta, std::max(x.remaining, 0.0) / x.rate);
  }
  completion_event_ = engine_.schedule_in(eta, [this] { on_completion_due(); });
}

void SwitchedEthernet::on_completion_due() {
  completion_event_ = 0;
  progress();
  std::vector<std::function<void()>> callbacks;
  for (auto it = active_.begin(); it != active_.end();) {
    if (transfer_delivered(it->remaining, it->rate, engine_.now())) {
      callbacks.push_back(std::move(it->on_complete));
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  reschedule();
  for (auto& cb : callbacks) cb();
}

TransferId SwitchedEthernet::send(int src, int dst, support::Bytes bytes,
                                  std::function<void()> on_complete) {
  SSPRED_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < spec_.hosts,
                 "source host out of range");
  SSPRED_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < spec_.hosts,
                 "destination host out of range");
  SSPRED_REQUIRE(src != dst, "switched send needs distinct hosts");
  SSPRED_REQUIRE(bytes > 0.0, "transfer must move at least one byte");
  progress();
  const TransferId id = next_id_++;
  Xfer x;
  x.id = id;
  x.egress = static_cast<std::size_t>(src);                 // out links
  x.ingress = spec_.hosts + static_cast<std::size_t>(dst);  // in links
  x.remaining = bytes;
  x.on_complete = std::move(on_complete);
  active_.push_back(std::move(x));
  reschedule();
  return id;
}

}  // namespace sspred::net
