#include "nws/service.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>

#include "support/error.hpp"

namespace sspred::nws {

Service::Service(ServiceOptions options)
    : options_(options), bank_(default_bank()) {
  SSPRED_REQUIRE(options_.history_capacity >= options_.warmup + 2,
                 "history capacity too small for postcasting");
}

void Service::observe(const std::string& resource, double value) {
  SSPRED_REQUIRE(std::isfinite(value),
                 "measurement for " + resource +
                     " is not finite: " + std::to_string(value));
  const std::unique_lock lock(mutex_);
  auto& h = histories_[resource];
  h.push_back(value);
  while (h.size() > options_.history_capacity) h.pop_front();
}

std::size_t Service::history_size(const std::string& resource) const {
  const std::shared_lock lock(mutex_);
  const auto it = histories_.find(resource);
  return it == histories_.end() ? 0 : it->second.size();
}

std::vector<double> Service::history(const std::string& resource) const {
  const std::shared_lock lock(mutex_);
  const auto it = histories_.find(resource);
  SSPRED_REQUIRE(it != histories_.end(), "unknown resource: " + resource);
  return {it->second.begin(), it->second.end()};
}

std::vector<Service::Postcast> Service::postcast(
    const std::string& resource) const {
  const std::vector<double> h = history(resource);
  const std::size_t warmup = options_.warmup;
  SSPRED_REQUIRE(h.size() >= warmup + 2,
                 "not enough history to postcast: " + resource);
  // out[k] is the forecast from the prefix of length warmup + k: entries
  // [0, n - warmup) are postcasts of h[warmup..n), the last is the
  // forecast of the value after h.
  std::vector<double> out(h.size() - warmup + 1);
  std::vector<Postcast> passes;
  passes.reserve(bank_.size());
  for (const auto& f : bank_) {
    f->predict_prefixes(h, warmup, out);
    double se = 0.0;
    for (std::size_t i = warmup; i < h.size(); ++i) {
      const double err = out[i - warmup] - h[i];
      se += err * err;
    }
    passes.push_back({se / static_cast<double>(h.size() - warmup), out.back()});
  }
  return passes;
}

std::vector<std::pair<std::string, double>> Service::postcast_errors(
    const std::string& resource) const {
  const std::vector<Postcast> passes = postcast(resource);
  std::vector<std::pair<std::string, double>> errors;
  errors.reserve(bank_.size());
  for (std::size_t i = 0; i < bank_.size(); ++i) {
    errors.emplace_back(bank_[i]->name(), passes[i].mse);
  }
  return errors;
}

void Service::save_csv(const std::string& path) const {
  std::ofstream out(path);
  SSPRED_REQUIRE(out.good(), "cannot open history file: " + path);
  out << "resource,index,value\n";
  const std::shared_lock lock(mutex_);
  for (const auto& [resource, history] : histories_) {
    std::size_t i = 0;
    for (double v : history) {
      out << resource << ',' << i++ << ',' << v << '\n';
    }
  }
}

void Service::load_csv(const std::string& path) {
  std::ifstream in(path);
  SSPRED_REQUIRE(in.good(), "cannot open history file: " + path);
  std::string line;
  SSPRED_REQUIRE(static_cast<bool>(std::getline(in, line)) &&
                     line == "resource,index,value",
                 "unexpected history header in " + path);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    SSPRED_REQUIRE(c1 != std::string::npos && c2 != std::string::npos,
                   "malformed history row in " + path);
    observe(line.substr(0, c1), std::stod(line.substr(c2 + 1)));
  }
}

std::vector<std::string> Service::resources() const {
  const std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(histories_.size());
  for (const auto& [name, _] : histories_) names.push_back(name);
  return names;
}

Forecast Service::forecast(const std::string& resource) const {
  const std::vector<Postcast> passes = postcast(resource);
  std::size_t best = 0;
  double best_mse = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (passes[i].mse < best_mse) {
      best_mse = passes[i].mse;
      best = i;
    }
  }
  Forecast fc;
  fc.value = passes[best].next;
  fc.error_sd = std::sqrt(best_mse);
  fc.forecaster = bank_[best]->name();
  return fc;
}

}  // namespace sspred::nws
