#include "serve/epoch.hpp"

#include "support/error.hpp"

namespace sspred::serve {

const stoch::StochasticValue& BindingsEpoch::lookup(
    const std::string& resource) const {
  const auto it = values_.find(resource);
  SSPRED_REQUIRE(it != values_.end(),
                 "resource '" + resource + "' not bound in epoch " +
                     std::to_string(version_) +
                     " (insufficient NWS history or not tracked)");
  return it->second;
}

NwsBridge::NwsBridge(const nws::Service& service,
                     std::vector<std::string> resources)
    : service_(service), resources_(std::move(resources)) {}

EpochPtr NwsBridge::publish() {
  std::map<std::string, stoch::StochasticValue> values;
  for (const auto& resource : resources_) {
    // forecast() requires warmup history; a resource that is not ready
    // yet is simply absent from this epoch.
    try {
      values.emplace(resource, service_.forecast(resource).sv());
    } catch (const support::Error&) {
    }
  }
  const std::lock_guard lock(mutex_);
  auto epoch =
      std::make_shared<const BindingsEpoch>(next_version_++, std::move(values));
  current_ = epoch;
  return epoch;
}

EpochPtr NwsBridge::current() const {
  const std::lock_guard lock(mutex_);
  return current_;
}

}  // namespace sspred::serve
