// Arbiter — ledger-scored selection between structural, learned and
// blended predictions, per model id.
//
// The NWS picks its best forecaster by trailing MSE (nws/forecast.hpp);
// this lifts the same pattern to whole models. For every model id the
// arbiter maintains three *candidate children* inside one
// calib::AccuracyLedger — composed ids "<model>#structural",
// "<model>#learned", "<model>#blended" — each scoring its candidate's
// rolling CRPS and coverage against the shared observation stream. The
// serving source flips only with hysteresis: a challenger with at least
// kArbiterWarmup observations in its rolling window must beat the
// incumbent's rolling CRPS by 10% for kHysteresis consecutive
// observations, so a lucky streak cannot thrash the serving path.
//
// The blended candidate is the two-component mixture of structural and
// learned, with the learned weight driven by the candidates' rolling
// CRPS ratio and clamped to [kMinBlendWeight, kMaxBlendWeight] — it
// hedges regime boundaries, where neither pure candidate is reliable yet
// (the bench's mixed-regime segment).
//
// All state is deterministic for a fixed observation sequence and
// process-local; a restarted node re-converges from fresh observations.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "calib/ledger.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::learn {

/// Serving prediction source. Values are the wire encoding
/// (serve::PredictResult::source) — do not reorder.
enum class Source : std::uint8_t {
  kStructural = 0,
  kLearned = 1,
  kBlended = 2,
};

[[nodiscard]] const char* source_name(Source source) noexcept;

/// Observations a challenger candidate needs in the rolling window
/// before it may challenge at all (and before the blend weight moves).
inline constexpr std::size_t kArbiterWarmup = 32;
/// Consecutive winning observations required before a flip.
inline constexpr std::size_t kHysteresis = 16;
/// Bounds on the learned share of the blended mixture.
inline constexpr double kMinBlendWeight = 0.05;
inline constexpr double kMaxBlendWeight = 0.95;

/// One candidate's scores in the arbitration table.
struct CandidateScore {
  std::uint64_t count = 0;         ///< observations scored (cumulative)
  double rolling_crps = 0.0;       ///< mean CRPS over the rolling window
  double rolling_coverage = 0.0;   ///< coverage over the rolling window
};

/// One model's row in the arbitration table.
struct ModelArbitration {
  std::string model_id;
  Source serving = Source::kStructural;
  std::uint64_t observations = 0;  ///< total observations arbitrated
  std::uint64_t flips = 0;         ///< serving-source switches so far
  std::size_t streak = 0;          ///< current challenger win streak
  double blend_weight = 0.5;       ///< learned share of the mixture
  CandidateScore structural;
  CandidateScore learned;
  CandidateScore blended;
};

/// Moment-matched two-component normal mixture of the structural and
/// learned predictions; `learned_weight` in [0, 1]. The mixture variance
/// includes the between-means term, so disagreeing candidates yield a
/// wide (honest) blend.
[[nodiscard]] stoch::StochasticValue blend(
    const stoch::StochasticValue& structural,
    const stoch::StochasticValue& learned, double learned_weight);

class Arbiter {
 public:
  /// Source to serve for `model_id`'s next prediction. kStructural for
  /// ids never recorded. The caller falls back to structural whenever
  /// the bank has no learned prediction yet, whatever this returns.
  [[nodiscard]] Source source(const std::string& model_id) const;

  /// Current learned share of the blended mixture for `model_id`.
  [[nodiscard]] double blend_weight(const std::string& model_id) const;

  /// Scores every candidate against one observation and advances the
  /// hysteresis state. `learned` may be null while the bank is warming
  /// up — then only the structural candidate is scored and the serving
  /// source pins to structural. Returns true when the serving source
  /// flipped on this observation.
  bool record(const std::string& model_id,
              const stoch::StochasticValue& structural,
              const stoch::StochasticValue* learned, double observed);

  /// Per-model arbitration table (sorted by model id).
  [[nodiscard]] std::vector<ModelArbitration> table() const;

  [[nodiscard]] std::uint64_t flips_total() const;

 private:
  struct ModelState {
    explicit ModelState(const std::string& model_id);

    /// The candidate's ledger id, "<model>#<source>".
    [[nodiscard]] const std::string& id(Source source) const noexcept {
      return ids[static_cast<std::size_t>(source)];
    }

    std::array<std::string, 3> ids;  ///< built once, indexed by Source
    Source serving = Source::kStructural;
    Source challenger = Source::kStructural;
    std::size_t streak = 0;
    std::uint64_t flips = 0;
    std::uint64_t observations = 0;
    std::uint64_t learned_observations = 0;
    double blend_w = 0.5;
  };

  /// Candidate children keyed "<model>#<source>"; its rolling window is
  /// the arbitration horizon.
  calib::AccuracyLedger ledger_;
  mutable std::mutex mutex_;  ///< guards states_ (ledger_ self-locks)
  std::map<std::string, ModelState> states_;
  std::uint64_t flips_total_ = 0;
};

}  // namespace sspred::learn
