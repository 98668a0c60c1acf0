// Unit + integration tests for the SOR structural model and the
// predict-then-execute harness.
#include <gtest/gtest.h>

#include "predict/experiment.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"
#include "support/error.hpp"

namespace sspred::predict {
namespace {

TEST(SorModel, ParameterNamesPerHost) {
  const auto platform = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 100;
  const StructuralModel model(author_sor(platform, cfg));
  EXPECT_EQ(model.hosts(), 4u);
  EXPECT_EQ(model.load_param(0), "load/sparc2-a");
  EXPECT_EQ(model.load_param(3), "load/sparc10");
  const auto params = model.expr()->parameters();
  EXPECT_EQ(params.size(), 5u);  // 4 loads + bwavail
}

TEST(SorModel, MakeEnvBindsEverything) {
  const auto platform = cluster::dedicated_platform(3);
  sor::SorConfig cfg;
  cfg.n = 60;
  const StructuralModel model(author_sor(platform, cfg));
  const std::vector<stoch::StochasticValue> loads(3, {1.0});
  const auto env = model.make_env(loads, stoch::StochasticValue(1.0));
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(env.has(model.load_param(p)));
  }
  EXPECT_TRUE(env.has(StructuralModel::bwavail_param()));
  const std::vector<stoch::StochasticValue> wrong(2, {1.0});
  EXPECT_THROW((void)model.make_env(wrong, {1.0}), support::Error);
}

TEST(SorModel, PredictionScalesWithIterationsAndSize) {
  const auto platform = cluster::dedicated_platform(4);
  const std::vector<stoch::StochasticValue> loads(4, {1.0});

  sor::SorConfig small;
  small.n = 400;
  small.iterations = 10;
  sor::SorConfig big_iters = small;
  big_iters.iterations = 20;
  sor::SorConfig big_n = small;
  big_n.n = 800;

  const StructuralModel m_small(author_sor(platform, small));
  const double t_small = m_small.predict_point(m_small.make_env(loads, {1.0}));
  const StructuralModel m_iters(author_sor(platform, big_iters));
  const double t_iters = m_iters.predict_point(m_iters.make_env(loads, {1.0}));
  const StructuralModel m_n(author_sor(platform, big_n));
  const double t_n = m_n.predict_point(m_n.make_env(loads, {1.0}));

  EXPECT_NEAR(t_iters, 2.0 * t_small, 1e-9);
  // Compute scales ~4x, communication ~2x; the mix lands in between.
  EXPECT_GT(t_n, 2.5 * t_small);
  EXPECT_LT(t_n, 4.0 * t_small);
}

TEST(SorModel, StochasticLoadWidensPrediction) {
  const auto platform = cluster::dedicated_platform(2);
  sor::SorConfig cfg;
  cfg.n = 200;
  const StructuralModel model(author_sor(platform, cfg));
  const std::vector<stoch::StochasticValue> point_loads(2, {0.5});
  const std::vector<stoch::StochasticValue> stoch_loads(
      2, stoch::StochasticValue(0.5, 0.05));
  const auto p = model.predict(model.make_env(point_loads, {1.0}));
  const auto s = model.predict(model.make_env(stoch_loads, {1.0}));
  EXPECT_DOUBLE_EQ(p.halfwidth(), 0.0);
  EXPECT_GT(s.halfwidth(), 0.0);
  EXPECT_NEAR(p.mean(), s.mean(), 1e-9);
}

TEST(SorModel, DedicatedPredictionWithinTwoPercentOfSimulation) {
  // The paper's §2.2.1 claim: "the structural model defined in this
  // section predicted overall application execution times to within 2%".
  const auto spec = cluster::dedicated_platform(4);
  sor::SorConfig cfg;
  cfg.n = 600;
  cfg.iterations = 20;
  cfg.real_numerics = false;  // timing identical, faster test
  const StructuralModel model(author_sor(spec, cfg));
  const std::vector<stoch::StochasticValue> loads(4, {1.0});
  const double predicted =
      model.predict_point(model.make_env(loads, {1.0}));

  sim::Engine engine;
  cluster::Platform platform(engine, spec, 5);
  const double actual =
      sor::run_distributed_sor(engine, platform, cfg).total_time;
  EXPECT_NEAR(predicted, actual, 0.02 * actual);
}

TEST(SorModel, HeterogeneousPlatformDominatedBySlowest) {
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 10;
  const StructuralModel model(author_sor(spec, cfg));
  // All dedicated: prediction must track the slowest machine (sparc2).
  const std::vector<stoch::StochasticValue> loads(4, {1.0});
  const double with_uniform =
      model.predict_point(model.make_env(loads, {1.0}));
  const double sparc2_compute =
      400.0 / 4.0 * 400.0 *  // elements per rank
      machine::sparc2_spec().bm_seconds_per_element * 10.0;
  EXPECT_GT(with_uniform, sparc2_compute * 0.95);
}

TEST(Experiment, DedicatedSeriesCapturesActuals) {
  SeriesConfig cfg;
  cfg.platform = cluster::dedicated_platform(4);
  cfg.sor.n = 300;
  cfg.sor.iterations = 10;
  cfg.sor.real_numerics = false;
  cfg.trials = 3;
  cfg.load_source = LoadParameterSource::kDedicated;
  const auto outcomes = run_series(cfg);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) {
    EXPECT_GT(o.actual, 0.0);
    EXPECT_NEAR(o.predicted.mean(), o.actual, 0.03 * o.actual);
  }
}

TEST(Experiment, SizeSweepReturnsMonotoneTimes) {
  SeriesConfig cfg;
  cfg.platform = cluster::dedicated_platform(4);
  cfg.sor.iterations = 10;
  cfg.sor.real_numerics = false;
  cfg.load_source = LoadParameterSource::kDedicated;
  const std::vector<std::size_t> sizes{200, 400, 600};
  const auto outcomes = run_size_sweep(cfg, sizes);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_LT(outcomes[0].actual, outcomes[1].actual);
  EXPECT_LT(outcomes[1].actual, outcomes[2].actual);
}

TEST(Experiment, Platform1SingleModeCapture) {
  // The §3.1 regime: quiet machines, slowest host in its centre mode.
  // Stochastic predictions should capture the actual times.
  SeriesConfig cfg;
  cfg.platform = cluster::platform1();
  cfg.sor.n = 1000;  // the paper's problem-size regime: compute dominates
  cfg.sor.iterations = 15;
  cfg.sor.real_numerics = false;
  cfg.trials = 4;
  cfg.load_source = LoadParameterSource::kRecentSample;
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  const auto outcomes = run_series(cfg);
  const auto s = score(outcomes);
  EXPECT_GE(s.capture_fraction, 0.5);
  EXPECT_LT(s.mean_mean_error, 0.25);
}

TEST(Experiment, ScoreMatchesManualComputation) {
  std::vector<TrialOutcome> outcomes(2);
  outcomes[0].predicted = stoch::StochasticValue(10.0, 2.0);
  outcomes[0].actual = 11.0;
  outcomes[1].predicted = stoch::StochasticValue(10.0, 2.0);
  outcomes[1].actual = 14.0;
  const auto s = score(outcomes);
  EXPECT_DOUBLE_EQ(s.capture_fraction, 0.5);
  EXPECT_NEAR(s.max_range_error, 2.0 / 14.0, 1e-12);
  EXPECT_DOUBLE_EQ(outcomes[0].point_predicted(), 10.0);
}

}  // namespace
}  // namespace sspred::predict
