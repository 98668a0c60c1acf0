#include "predict/host_selection.hpp"

#include <algorithm>

#include "stoch/service_range.hpp"
#include "support/error.hpp"

namespace sspred::predict {

cluster::PlatformSpec CandidatePlan::subset_spec(
    const cluster::PlatformSpec& full) const {
  cluster::PlatformSpec spec = full;
  spec.hosts.clear();
  for (std::size_t h : hosts) {
    SSPRED_REQUIRE(h < full.hosts.size(), "host index out of range");
    spec.hosts.push_back(full.hosts[h]);
  }
  return spec;
}

namespace {

double plan_score(const stoch::StochasticValue& predicted, PlanMetric metric) {
  switch (metric) {
    case PlanMetric::kExpectedTime:
      return predicted.mean();
    case PlanMetric::kP95Time:
      return predicted.is_point() ? predicted.mean()
                                  : stoch::quantile(predicted, 0.95);
    case PlanMetric::kUpperBound:
      return predicted.upper();
  }
  SSPRED_REQUIRE(false, "unknown PlanMetric");
  return 0.0;
}

}  // namespace

std::vector<CandidatePlan> rank_host_subsets(
    const cluster::PlatformSpec& platform, const sor::SorConfig& config,
    std::span<const stoch::StochasticValue> loads,
    stoch::StochasticValue bwavail, PlanMetric metric,
    const SorModelOptions& options) {
  const std::size_t host_count = platform.hosts.size();
  SSPRED_REQUIRE(host_count >= 1 && host_count <= 16,
                 "subset enumeration supports 1..16 hosts");
  SSPRED_REQUIRE(loads.size() == host_count, "need one load per host");

  std::vector<CandidatePlan> plans;
  const auto subsets = (std::size_t{1} << host_count) - 1;
  for (std::size_t mask = 1; mask <= subsets; ++mask) {
    CandidatePlan plan;
    std::vector<stoch::StochasticValue> subset_loads;
    for (std::size_t h = 0; h < host_count; ++h) {
      if (mask & (std::size_t{1} << h)) {
        plan.hosts.push_back(h);
        subset_loads.push_back(loads[h]);
      }
    }
    if (config.n < plan.hosts.size()) continue;  // more hosts than rows

    const cluster::PlatformSpec spec = plan.subset_spec(platform);
    plan.rows = recommend_rows(spec, config.n, subset_loads,
                               BalanceStrategy::kMeanCapacity);
    sor::SorConfig subset_cfg = config;
    subset_cfg.rows_per_rank = plan.rows;
    const StructuralModel model(author_sor(spec, subset_cfg, options));
    plan.predicted = model.predict(model.make_slot_env(subset_loads, bwavail));
    plan.score = plan_score(plan.predicted, metric);
    plans.push_back(std::move(plan));
  }
  std::sort(plans.begin(), plans.end(),
            [](const CandidatePlan& a, const CandidatePlan& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.hosts.size() < b.hosts.size();
            });
  return plans;
}

CandidatePlan select_hosts(const cluster::PlatformSpec& platform,
                           const sor::SorConfig& config,
                           std::span<const stoch::StochasticValue> loads,
                           stoch::StochasticValue bwavail, PlanMetric metric,
                           const SorModelOptions& options) {
  const auto plans =
      rank_host_subsets(platform, config, loads, bwavail, metric, options);
  SSPRED_REQUIRE(!plans.empty(), "no feasible plan");
  return plans.front();
}

}  // namespace sspred::predict
