#include "calib/ledger.hpp"

#include <algorithm>
#include <cmath>

#include "stats/distributions.hpp"
#include "support/error.hpp"

namespace sspred::calib {

namespace {
constexpr double kInvSqrtPi = 0.5641895835477563;  // 1/sqrt(pi)
}  // namespace

double normal_crps(double mean, double sd, double y) {
  SSPRED_REQUIRE(sd > 0.0, "normal_crps requires sd > 0");
  const double z = (y - mean) / sd;
  return sd * (z * (2.0 * stats::normal_cdf(z) - 1.0) +
               2.0 * stats::normal_pdf(z) - kInvSqrtPi);
}

double pinball_loss(double q, double tau, double y) noexcept {
  return y >= q ? tau * (y - q) : (1.0 - tau) * (q - y);
}

AccuracyLedger::Entry::Entry(const LedgerOptions& options)
    : abs_z(options.nominal_coverage),
      ring(std::max<std::size_t>(options.coverage_window, 1), 0),
      crps_ring(std::max<std::size_t>(options.coverage_window, 1), 0.0) {}

void AccuracyLedger::Entry::record(const stoch::StochasticValue& predicted,
                                   double observed,
                                   const IntervalQuantiles& quantiles) {
  ++count;
  const bool hit = predicted.contains(observed);
  if (hit) ++inside;

  ring_sum += hit ? 1 : 0;
  ring_sum -= ring[ring_pos];
  ring[ring_pos] = hit ? 1 : 0;
  ring_pos = (ring_pos + 1) % ring.size();
  if (ring_n < ring.size()) ++ring_n;

  halfwidths.add(predicted.halfwidth());
  // Rolling CRPS: points score as |error| (the CRPS of a degenerate
  // distribution), so every candidate pays into the arbitration window.
  const double crps_now =
      predicted.is_point()
          ? std::abs(observed - predicted.mean())
          : normal_crps(predicted.mean(), predicted.sd(), observed);
  crps_ring[crps_ring_pos] = crps_now;
  crps_ring_pos = (crps_ring_pos + 1) % crps_ring.size();
  if (crps_ring_n < crps_ring.size()) ++crps_ring_n;

  if (predicted.is_point()) {
    ++points;
    return;
  }
  const double sd = predicted.sd();
  const double zv = (observed - predicted.mean()) / sd;
  z.add(zv);
  abs_z.add(std::abs(zv));
  crps.add(crps_now);
  // mean + sd * z is exactly stats::Normal(mean, sd).quantile(tau); sd > 0
  // was enforced by normal_crps above.
  const double q_lo = predicted.mean() + sd * quantiles.z_lo;
  const double q_hi = predicted.mean() + sd * quantiles.z_hi;
  pinball.add(0.5 * (pinball_loss(q_lo, quantiles.tau_lo, observed) +
                     pinball_loss(q_hi, quantiles.tau_hi, observed)));
}

CalibrationSnapshot AccuracyLedger::Entry::snapshot(
    const LedgerOptions& options) const {
  CalibrationSnapshot s;
  s.count = count;
  s.inside = inside;
  s.coverage = count == 0 ? 0.0
                          : static_cast<double>(inside) /
                                static_cast<double>(count);
  s.rolling_count = ring_n;
  s.rolling_coverage = ring_n == 0 ? 0.0
                                   : static_cast<double>(ring_sum) /
                                         static_cast<double>(ring_n);
  s.nominal_coverage = options.nominal_coverage;
  s.sharpness = halfwidths.count() == 0 ? 0.0 : halfwidths.mean();
  s.mean_crps = crps.count() == 0 ? 0.0 : crps.mean();
  s.rolling_crps_count = crps_ring_n;
  if (crps_ring_n > 0) {
    double sum = 0.0;
    for (std::size_t i = 0; i < crps_ring_n; ++i) sum += crps_ring[i];
    s.rolling_crps = sum / static_cast<double>(crps_ring_n);
  }
  s.mean_pinball = pinball.count() == 0 ? 0.0 : pinball.mean();
  s.z_mean = z.count() == 0 ? 0.0 : z.mean();
  s.z_sd = z.sd();
  s.abs_z_quantile = abs_z.value();
  s.point_predictions = points;
  return s;
}

AccuracyLedger::AccuracyLedger(LedgerOptions options)
    : options_(options), overall_(options) {
  SSPRED_REQUIRE(
      options_.nominal_coverage > 0.0 && options_.nominal_coverage < 1.0,
      "nominal coverage must be in (0, 1)");
  SSPRED_REQUIRE(options_.coverage_window >= 1,
                 "coverage window must hold at least one observation");
  quantiles_.tau_lo = (1.0 - options_.nominal_coverage) / 2.0;
  quantiles_.tau_hi = 1.0 - quantiles_.tau_lo;
  quantiles_.z_lo = stats::normal_quantile(quantiles_.tau_lo);
  quantiles_.z_hi = stats::normal_quantile(quantiles_.tau_hi);
}

void AccuracyLedger::record(const std::string& model_id,
                            const stoch::StochasticValue& predicted,
                            double observed) {
  const std::lock_guard lock(mutex_);
  overall_.record(predicted, observed, quantiles_);
  auto it = per_model_.find(model_id);
  if (it == per_model_.end()) {
    it = per_model_.emplace(model_id, Entry(options_)).first;
  }
  it->second.record(predicted, observed, quantiles_);
}

CalibrationSnapshot AccuracyLedger::snapshot() const {
  const std::lock_guard lock(mutex_);
  return overall_.snapshot(options_);
}

CalibrationSnapshot AccuracyLedger::snapshot(
    const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  const auto it = per_model_.find(model_id);
  SSPRED_REQUIRE(it != per_model_.end(),
                 "no observations recorded for model '" + model_id + "'");
  return it->second.snapshot(options_);
}

bool AccuracyLedger::has(const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  return per_model_.find(model_id) != per_model_.end();
}

std::vector<std::string> AccuracyLedger::model_ids() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(per_model_.size());
  for (const auto& [id, _] : per_model_) ids.push_back(id);
  return ids;
}

}  // namespace sspred::calib
