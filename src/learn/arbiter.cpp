#include "learn/arbiter.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace sspred::learn {
namespace {

/// Relative rolling-CRPS margin a challenger must win by.
constexpr double kImprovement = 0.10;

}  // namespace

const char* source_name(Source source) noexcept {
  switch (source) {
    case Source::kStructural:
      return "structural";
    case Source::kLearned:
      return "learned";
    case Source::kBlended:
      return "blended";
  }
  return "unknown";
}

stoch::StochasticValue blend(const stoch::StochasticValue& structural,
                             const stoch::StochasticValue& learned,
                             double learned_weight) {
  const double w = std::clamp(learned_weight, 0.0, 1.0);
  const double ms = structural.mean();
  const double ml = learned.mean();
  const double vs = structural.sd() * structural.sd();
  const double vl = learned.sd() * learned.sd();
  const double mean = w * ml + (1.0 - w) * ms;
  // Mixture second moment: within-component variance plus the spread of
  // the component means around the mixture mean.
  const double var = w * (vl + ml * ml) + (1.0 - w) * (vs + ms * ms) -
                     mean * mean;
  return stoch::StochasticValue::from_mean_sd(mean,
                                              std::sqrt(std::max(var, 0.0)));
}

Arbiter::ModelState::ModelState(const std::string& model_id) {
  for (const Source source :
       {Source::kStructural, Source::kLearned, Source::kBlended}) {
    ids[static_cast<std::size_t>(source)] =
        model_id + "#" + source_name(source);
  }
}

Source Arbiter::source(const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  const auto it = states_.find(model_id);
  return it == states_.end() ? Source::kStructural : it->second.serving;
}

double Arbiter::blend_weight(const std::string& model_id) const {
  const std::lock_guard lock(mutex_);
  const auto it = states_.find(model_id);
  return it == states_.end() ? 0.5 : it->second.blend_w;
}

bool Arbiter::record(const std::string& model_id,
                     const stoch::StochasticValue& structural,
                     const stoch::StochasticValue* learned, double observed) {
  const std::lock_guard lock(mutex_);
  ModelState& state = states_.try_emplace(model_id, model_id).first->second;
  ++state.observations;

  ledger_.record(state.id(Source::kStructural), structural, observed);
  if (learned == nullptr) {
    // Bank still warming up: nothing to arbitrate. Pin to structural so
    // a flip decided on stale evidence cannot outlive a restart of the
    // learned side.
    state.serving = Source::kStructural;
    state.challenger = Source::kStructural;
    state.streak = 0;
    return false;
  }
  ++state.learned_observations;
  // The blended candidate is scored with the weight that was current
  // BEFORE this observation — the weight the serving path would actually
  // have used — then the weight is refreshed for the next one.
  const stoch::StochasticValue blended =
      blend(structural, *learned, state.blend_w);
  ledger_.record(state.id(Source::kLearned), *learned, observed);
  ledger_.record(state.id(Source::kBlended), blended, observed);

  const calib::CalibrationSnapshot s_struct =
      ledger_.snapshot(state.id(Source::kStructural));
  const calib::CalibrationSnapshot s_learn =
      ledger_.snapshot(state.id(Source::kLearned));
  const calib::CalibrationSnapshot s_blend =
      ledger_.snapshot(state.id(Source::kBlended));

  // Learned share of the mixture from the rolling-CRPS ratio: the
  // candidate with the smaller score earns the larger weight.
  if (s_learn.rolling_crps_count >= kArbiterWarmup) {
    const double total = s_struct.rolling_crps + s_learn.rolling_crps;
    if (total > 0.0) {
      state.blend_w = std::clamp(s_struct.rolling_crps / total,
                                 kMinBlendWeight, kMaxBlendWeight);
    }
  }

  // Best eligible candidate by rolling CRPS; fixed evaluation order
  // breaks exact ties deterministically in favor of the earlier source.
  struct Candidate {
    Source source;
    double crps;
    std::uint64_t window;
  };
  const std::array<Candidate, 3> candidates{{
      {Source::kStructural, s_struct.rolling_crps, s_struct.rolling_crps_count},
      {Source::kLearned, s_learn.rolling_crps, s_learn.rolling_crps_count},
      {Source::kBlended, s_blend.rolling_crps, s_blend.rolling_crps_count},
  }};
  double incumbent_crps = 0.0;
  for (const Candidate& c : candidates) {
    if (c.source == state.serving) incumbent_crps = c.crps;
  }
  Source best = state.serving;
  double best_crps = incumbent_crps;
  for (const Candidate& c : candidates) {
    if (c.source == state.serving) continue;
    if (c.window < kArbiterWarmup) continue;
    if (c.crps < best_crps) {
      best = c.source;
      best_crps = c.crps;
    }
  }

  bool flipped = false;
  if (best != state.serving &&
      best_crps < incumbent_crps * (1.0 - kImprovement)) {
    if (state.challenger == best) {
      ++state.streak;
    } else {
      state.challenger = best;
      state.streak = 1;
    }
    if (state.streak >= kHysteresis) {
      state.serving = best;
      state.challenger = best;
      state.streak = 0;
      ++state.flips;
      ++flips_total_;
      flipped = true;
    }
  } else {
    state.challenger = state.serving;
    state.streak = 0;
  }
  return flipped;
}

std::vector<ModelArbitration> Arbiter::table() const {
  const std::lock_guard lock(mutex_);
  std::vector<ModelArbitration> out;
  out.reserve(states_.size());
  for (const auto& [model_id, state] : states_) {
    ModelArbitration row;
    row.model_id = model_id;
    row.serving = state.serving;
    row.observations = state.observations;
    row.flips = state.flips;
    row.streak = state.streak;
    row.blend_weight = state.blend_w;
    const auto fill = [&](Source source, CandidateScore& score) {
      const std::string& id = state.id(source);
      if (!ledger_.has(id)) return;
      const calib::CalibrationSnapshot s = ledger_.snapshot(id);
      score.count = s.count;
      score.rolling_crps = s.rolling_crps;
      score.rolling_coverage = s.rolling_coverage;
    };
    fill(Source::kStructural, row.structural);
    fill(Source::kLearned, row.learned);
    fill(Source::kBlended, row.blended);
    out.push_back(std::move(row));
  }
  return out;
}

std::uint64_t Arbiter::flips_total() const {
  const std::lock_guard lock(mutex_);
  return flips_total_;
}

}  // namespace sspred::learn
