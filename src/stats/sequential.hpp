// Sequential stopping for Monte-Carlo estimation.
//
// A `StopRule` names a precision target (CI half-width of the estimated
// mean, absolute or relative) plus min/max-trial clamps; a
// `SequentialEstimator` merges the moments of each sampled block
// (OnlineStats::from_block) and answers "have we sampled enough?". The
// stopping decision is a pure function of the sampled values and the
// rule — no clocks, no global state — so a fixed RNG seed reproduces the
// exact trial count, run after run. That determinism is load-bearing:
// the blocked MC engine (model/ir.*) and the serving tier both lean on it
// for bit-exact fused-vs-solo differentials and reproducible artifacts.
//
// The shared block schedule lives here too (`next_block_width`): callers
// check the stop rule only between blocks, and both the IR engine and
// stoch::empirical_* must grow their sample counts through the SAME
// checkpoints or solo and fused runs of one request would stop at
// different trial counts.
#pragma once

#include <cstddef>

#include "stats/descriptive.hpp"

namespace sspred::stats {

/// When to stop drawing Monte-Carlo trials.
///
/// `target <= 0` disables the precision stop: the run executes exactly
/// `max_trials` trials (and `min_trials` is ignored), which makes a
/// fixed trial count just another rule (`StopRule::fixed`). With a
/// target, sampling stops at the first between-block checkpoint where
/// `n >= min_trials` and the CI half-width of the estimated mean,
/// `z * sd / sqrt(n)`, is at or below the target — or unconditionally
/// at `max_trials`.
struct StopRule {
  double target = 0.0;          ///< CI half-width target; <= 0: fixed count
  bool relative = false;        ///< target is a fraction of |estimate|
  std::size_t min_trials = 2;   ///< precision stop not consulted before this
  std::size_t max_trials = 2000;  ///< hard clamp, always honoured
  double confidence_z = 2.0;    ///< half-width = z * sd / sqrt(n)

  /// Exactly `trials` trials, no precision stop.
  [[nodiscard]] static StopRule fixed(std::size_t trials) noexcept {
    StopRule r;
    r.max_trials = trials;
    return r;
  }
  /// Stop when the CI half-width of the mean is <= `halfwidth`.
  [[nodiscard]] static StopRule absolute(double halfwidth,
                                         std::size_t max_trials,
                                         std::size_t min_trials = 64) noexcept {
    StopRule r;
    r.target = halfwidth;
    r.min_trials = min_trials;
    r.max_trials = max_trials;
    return r;
  }
  /// Stop when the CI half-width is <= `fraction * |mean|`.
  [[nodiscard]] static StopRule relative_width(
      double fraction, std::size_t max_trials,
      std::size_t min_trials = 64) noexcept {
    StopRule r;
    r.target = fraction;
    r.relative = true;
    r.min_trials = min_trials;
    r.max_trials = max_trials;
    return r;
  }
};

/// Width of the next sampling block under `rule` after `done` samples,
/// capped at `block_cap` (the engine's SoA lane width); 0 once done.
///
/// Fixed rules (no target) advance in straight `block_cap` blocks with a
/// partial last block — byte-for-byte the schedule of
/// `ir::Program::sample_trials`, so a fixed-rule adaptive run consumes
/// the RNG identically to the non-adaptive engine. Precision rules use
/// doubling checkpoints (min, 2*min, 4*min, ... then every `block_cap`)
/// so easy targets can stop after a few hundred trials instead of a full
/// 1024-lane block, with at most ~2x overshoot past the ideal stop.
[[nodiscard]] std::size_t next_block_width(std::size_t done,
                                           const StopRule& rule,
                                           std::size_t block_cap) noexcept;

/// Block-merged mean/variance with the stop rule attached.
class SequentialEstimator {
 public:
  explicit SequentialEstimator(StopRule rule) noexcept : rule_(rule) {}

  /// Folds in a whole block's moments (OnlineStats::from_block), the way
  /// the blocked Monte-Carlo engine and the stopped stoch::empirical_*
  /// helpers feed the rule.
  void merge(const OnlineStats& block) noexcept { stats_.merge(block); }

  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double variance() const noexcept { return stats_.variance(); }
  [[nodiscard]] double sd() const noexcept { return stats_.sd(); }
  [[nodiscard]] const StopRule& rule() const noexcept { return rule_; }

  /// z * sd / sqrt(n); +infinity until two samples exist.
  [[nodiscard]] double ci_halfwidth() const noexcept;

  /// CI half-width at or below the (absolute or relative) target.
  /// Always false when the rule has no target or fewer than two samples.
  [[nodiscard]] bool precision_met() const noexcept;

  /// Stop now: precision met past the min clamp, or max clamp reached.
  [[nodiscard]] bool should_stop() const noexcept;

 private:
  StopRule rule_;
  OnlineStats stats_;
};

}  // namespace sspred::stats
