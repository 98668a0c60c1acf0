#include "predict/experiment.hpp"

#include <algorithm>

#include "nws/sensor.hpp"
#include "nws/service.hpp"
#include "stats/gmm.hpp"
#include "stoch/modes.hpp"
#include "support/error.hpp"

namespace sspred::predict {

namespace {

/// Derives the per-host load parameters for a trial starting at `start`.
std::vector<stoch::StochasticValue> load_parameters(
    const SeriesConfig& config, cluster::Platform& platform,
    support::Seconds start) {
  std::vector<stoch::StochasticValue> loads;
  loads.reserve(platform.size());
  switch (config.load_source) {
    case LoadParameterSource::kDedicated: {
      for (std::size_t p = 0; p < platform.size(); ++p) {
        loads.emplace_back(1.0);
      }
      break;
    }
    case LoadParameterSource::kNwsForecast: {
      nws::Service service;
      for (std::size_t p = 0; p < platform.size(); ++p) {
        auto& m = platform.machine(p);
        nws::ingest_cpu_history(m, service,
                                std::max(0.0, start - config.history_window),
                                start, config.sample_interval);
        loads.push_back(service.forecast(nws::cpu_resource(m)).sv());
      }
      break;
    }
    case LoadParameterSource::kRecentSample: {
      for (std::size_t p = 0; p < platform.size(); ++p) {
        auto& m = platform.machine(p);
        std::vector<double> window;
        for (support::Seconds t = std::max(0.0, start - config.history_window);
             t < start; t += config.sample_interval) {
          window.push_back(m.availability(t));
        }
        SSPRED_REQUIRE(window.size() >= 2, "history window too small");
        loads.push_back(stoch::StochasticValue::from_sample(window));
      }
      break;
    }
    case LoadParameterSource::kModalMix: {
      for (std::size_t p = 0; p < platform.size(); ++p) {
        auto& m = platform.machine(p);
        std::vector<double> window;
        for (support::Seconds t = std::max(0.0, start - config.history_window);
             t < start; t += config.sample_interval) {
          window.push_back(m.availability(t));
        }
        SSPRED_REQUIRE(window.size() >= 8, "history window too small");
        const auto fit = stats::fit_gmm_auto(window, 4);
        const auto modes = stoch::modes_from_gmm(fit);
        loads.push_back(stoch::mixture_moments(modes));
      }
      break;
    }
  }
  // A load forecast (or its error spread) can stray out of the physical
  // (0, 1] range; the model divides by the load, so clip the mean into
  // range and cap the halfwidth so the interval stays strictly positive.
  for (auto& l : loads) {
    const double mean = std::clamp(l.mean(), 0.05, 1.0);
    const double half = std::min(l.halfwidth(), mean - 0.02);
    l = stoch::StochasticValue(mean, std::max(half, 0.0));
  }
  return loads;
}

/// Derives the trial's bandwidth-availability parameter.
stoch::StochasticValue bandwidth_parameter(const SeriesConfig& config,
                                           const nws::Service& bw_service) {
  if (config.bw_source == BandwidthSource::kFixed) return config.bwavail;
  const auto fc = bw_service.forecast(nws::ethernet_resource());
  const double mean = std::clamp(fc.value, 0.05, 1.0);
  const double half = std::min(2.0 * fc.error_sd, mean - 0.02);
  return stoch::StochasticValue(mean, std::max(half, 0.0));
}

/// Shared trial state for Monte-Carlo prediction: one RNG stream over the
/// whole series (trials stay reproducible for a fixed SeriesConfig::seed)
/// and one workspace so the blocked engine's SoA arenas are reused across
/// trials instead of reallocated.
struct McState {
  explicit McState(std::uint64_t seed) : rng(seed) {}
  support::Rng rng;
  model::ir::EvalWorkspace ws;
};

TrialOutcome run_one(const SeriesConfig& config, sim::Engine& engine,
                     cluster::Platform& platform,
                     const StructuralModel& model,
                     const sor::SorConfig& sor_cfg,
                     const nws::Service& bw_service, support::Seconds start,
                     McState& mc) {
  // Advance to the trial start first so live sensors (bandwidth probes)
  // have produced their history before the model is parameterized.
  engine.run_until(start);
  TrialOutcome outcome;
  outcome.start_time = start;
  outcome.load_params = load_parameters(config, platform, start);
  for (std::size_t p = 0; p < platform.size(); ++p) {
    outcome.load_at_start.push_back(platform.machine(p).availability(start));
  }
  // Bind the trial's parameters by slot id into the compiled program —
  // no string lookups inside the trial loop.
  const model::ir::SlotEnvironment env = model.make_slot_env(
      outcome.load_params, bandwidth_parameter(config, bw_service));
  outcome.predicted =
      config.method == PredictionMethod::kMonteCarlo
          ? model.predict_monte_carlo(env, mc.rng, config.mc_trials, mc.ws)
          : model.predict(env);
  const sor::SorResult result =
      sor::run_distributed_sor(engine, platform, sor_cfg, start);
  outcome.actual = result.total_time;
  return outcome;
}

}  // namespace

std::vector<TrialOutcome> run_series(const SeriesConfig& config) {
  SSPRED_REQUIRE(config.trials >= 1, "need at least one trial");
  sim::Engine engine;
  cluster::PlatformSpec spec = config.platform;
  const support::Seconds horizon =
      config.first_start +
      static_cast<double>(config.trials) * config.spacing + 2000.0;
  spec.trace_duration = std::max(spec.trace_duration, horizon);
  cluster::Platform platform(engine, spec, config.seed);

  nws::Service bw_service;
  if (config.bw_source == BandwidthSource::kNwsProbe) {
    engine.spawn(nws::bandwidth_sensor(engine, platform.ethernet(),
                                       bw_service, config.bw_probe_bytes,
                                       config.bw_probe_interval, horizon));
  }

  // The problem configuration is fixed for the series, so author and
  // compile the structural model once; trials only rebind its slots.
  const StructuralModel model(
      author_sor(config.platform, config.sor, config.model));

  // Distinct stream from the platform's trace RNG (same seed would
  // correlate the sampled loads with the simulated load signal).
  McState mc(config.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(config.trials);
  for (std::size_t i = 0; i < config.trials; ++i) {
    const support::Seconds start =
        std::max(config.first_start + static_cast<double>(i) * config.spacing,
                 engine.now());
    outcomes.push_back(run_one(config, engine, platform, model, config.sor,
                               bw_service, start, mc));
  }
  return outcomes;
}

std::vector<TrialOutcome> run_size_sweep(const SeriesConfig& config,
                                         std::span<const std::size_t> sizes) {
  SSPRED_REQUIRE(!sizes.empty(), "need at least one size");
  sim::Engine engine;
  cluster::PlatformSpec spec = config.platform;
  const support::Seconds horizon =
      config.first_start +
      static_cast<double>(sizes.size()) * config.spacing + 2000.0;
  spec.trace_duration = std::max(spec.trace_duration, horizon);
  cluster::Platform platform(engine, spec, config.seed);

  nws::Service bw_service;
  if (config.bw_source == BandwidthSource::kNwsProbe) {
    engine.spawn(nws::bandwidth_sensor(engine, platform.ethernet(),
                                       bw_service, config.bw_probe_bytes,
                                       config.bw_probe_interval, horizon));
  }

  McState mc(config.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sor::SorConfig sor_cfg = config.sor;
    sor_cfg.n = sizes[i];
    // The problem size changes every trial here, so each size gets its
    // own compiled model (unlike run_series, which hoists one).
    const StructuralModel model(
        author_sor(config.platform, sor_cfg, config.model));
    const support::Seconds start =
        std::max(config.first_start + static_cast<double>(i) * config.spacing,
                 engine.now());
    outcomes.push_back(run_one(config, engine, platform, model, sor_cfg,
                               bw_service, start, mc));
  }
  return outcomes;
}

stoch::PredictionScore score(std::span<const TrialOutcome> outcomes) {
  std::vector<stoch::StochasticValue> predictions;
  std::vector<double> actuals;
  predictions.reserve(outcomes.size());
  actuals.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    predictions.push_back(o.predicted);
    actuals.push_back(o.actual);
  }
  return stoch::score_predictions(predictions, actuals);
}

}  // namespace sspred::predict
