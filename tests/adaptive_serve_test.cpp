// Serving-layer tests for adaptive-precision Monte-Carlo requests
// (PredictRequest::precision / precision_relative / min_trials and the
// PredictResult mc_trials / mc_ci_halfwidth / precision_met stamps).
//
// The serve contracts on top of the engine-level ones (sequential_test):
//   * precision requests stop early, stamp the achieved CI width, and
//     feed the mc_trials_executed / mc_trials_saved metrics;
//   * an unreachable target at the max-trial clamp is a STRUCTURED
//     partial-precision outcome (kOk + precision_met=false), not an
//     error;
//   * a staged batch of mixed fixed-count and precision-target requests
//     serves, field for field, what one-at-a-time serving does;
//   * a precision request with a large clamp stops early and feeds the
//     mc_trials_executed histogram;
//   * concurrent mixed submissions are race-free (CI runs the suite
//     under ThreadSanitizer).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cluster/platform.hpp"
#include "serve/service.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::serve {
namespace {

using stoch::StochasticValue;

ModelSpec small_spec(std::size_t n = 200, std::size_t hosts = 2) {
  ModelSpec spec;
  spec.app = ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

/// Monte-Carlo request `i` with distinct bindings; precision > 0 makes
/// it adaptive with `trials` as the max clamp.
PredictRequest mc_request(std::size_t i, std::size_t trials,
                          double precision = 0.0, bool relative = false) {
  PredictRequest request;
  request.model_id = "sor";
  request.mode = Mode::kMonteCarlo;
  for (std::size_t h = 0; h < 2; ++h) {
    request.loads.emplace_back(0.5 + 0.01 * double(i) + 0.05 * double(h),
                               0.05 + 0.002 * double(i));
  }
  request.trials = trials;
  request.seed = 100 + i;
  request.precision = precision;
  request.precision_relative = relative;
  return request;
}

TEST(AdaptiveServe, PrecisionRequestStopsEarlyAndStampsResult) {
  ServiceOptions options;
  options.workers = 1;
  PredictionService service(options);
  service.register_model("sor", small_spec());

  // A loose relative target on a mild model: far fewer than 2000 trials.
  auto future = service.submit(mc_request(0, 2'000, 0.05, true));
  const PredictResult r = future.get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.precision_met);
  EXPECT_GE(r.mc_trials, 2u);
  EXPECT_LT(r.mc_trials, 2'000u);
  EXPECT_GT(r.mc_ci_halfwidth, 0.0);
  EXPECT_LE(r.mc_ci_halfwidth, 0.05 * std::abs(r.value.mean()));
  service.drain();
  EXPECT_EQ(service.metrics().counter("mc_trials_saved").value(),
            2'000u - r.mc_trials);
}

TEST(AdaptiveServe, FixedRequestStampsTrialsAndWidthToo) {
  PredictionService service;
  service.register_model("sor", small_spec());
  const PredictResult r = service.submit(mc_request(1, 600)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.precision_met);
  EXPECT_EQ(r.mc_trials, 600u);
  EXPECT_GT(r.mc_ci_halfwidth, 0.0);
  service.drain();
  EXPECT_EQ(service.metrics().counter("mc_trials_saved").value(), 0u);
}

TEST(AdaptiveServe, UnreachableTargetIsStructuredPartialPrecision) {
  PredictionService service;
  service.register_model("sor", small_spec());
  // Absurd absolute target with a small max clamp: must clamp, not error.
  const PredictResult r = service.submit(mc_request(2, 256, 1e-12)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.precision_met);
  EXPECT_EQ(r.mc_trials, 256u);
  EXPECT_GT(r.mc_ci_halfwidth, 1e-12);
}

TEST(AdaptiveServe, MixedFixedAndPrecisionBatchMatchesOneAtATime) {
  // A staged mixed batch serves exactly what caller-runs serve(), which
  // never coalesces, serves one at a time.
  ServiceOptions options;
  options.workers = 2;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());

  // Alternate fixed-count and precision-target requests with unequal
  // trial clamps.
  const auto make = [](std::size_t i) {
    return i % 2 == 0 ? mc_request(i, 600)
                      : mc_request(i, 1'500, 0.04, true);
  };
  constexpr std::size_t kRequests = 24;
  std::vector<std::future<PredictResult>> staged;
  for (std::size_t i = 0; i < kRequests; ++i) {
    staged.push_back(service.submit(make(i)));
  }
  service.resume();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const PredictResult a = staged[i].get();
    const PredictResult b = service.serve(make(i));
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_DOUBLE_EQ(a.value.mean(), b.value.mean()) << i;
    EXPECT_DOUBLE_EQ(a.value.halfwidth(), b.value.halfwidth()) << i;
    EXPECT_EQ(a.mc_trials, b.mc_trials) << i;
    EXPECT_DOUBLE_EQ(a.mc_ci_halfwidth, b.mc_ci_halfwidth) << i;
    EXPECT_EQ(a.precision_met, b.precision_met) << i;
    if (i % 2 == 0) {
      EXPECT_EQ(a.mc_trials, 600u) << i;
    } else {
      EXPECT_TRUE(a.precision_met) << i;
      EXPECT_LT(a.mc_trials, 1'500u) << i;
    }
  }
}

TEST(AdaptiveServe, IdenticalPrecisionRequestsCoalesce) {
  ServiceOptions options;
  options.workers = 1;
  PredictionService service(options);
  service.pause();
  service.register_model("sor", small_spec());
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(mc_request(5, 1'000, 0.05, true)));
  }
  service.resume();
  std::vector<PredictResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const PredictResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_DOUBLE_EQ(r.value.mean(), results[0].value.mean());
    EXPECT_EQ(r.mc_trials, results[0].mc_trials);
  }
  EXPECT_GT(service.metrics().counter("requests_coalesced").value(), 0u);
}

TEST(AdaptiveServe, LargePrecisionRequestRunsSoloNotChunked) {
  ServiceOptions options;
  options.workers = 4;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  constexpr std::size_t cap = 8192;
  const PredictResult r =
      service.submit(mc_request(3, cap, 0.20, true)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.precision_met);
  EXPECT_LE(r.mc_trials, cap);
  // The histogram saw the run.
  bool found = false;
  for (const auto& sample : service.metrics().snapshot()) {
    if (sample.name == "mc_trials_executed") {
      found = true;
      EXPECT_GE(sample.value, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AdaptiveServe, SameSeedReproducesTrialCountAcrossServices) {
  const auto run = [] {
    PredictionService service;
    service.register_model("sor", small_spec());
    return service.submit(mc_request(4, 4'000, 0.03, true)).get();
  };
  const PredictResult a = run();
  const PredictResult b = run();
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.mc_trials, b.mc_trials);
  EXPECT_DOUBLE_EQ(a.value.mean(), b.value.mean());
  EXPECT_DOUBLE_EQ(a.mc_ci_halfwidth, b.mc_ci_halfwidth);
}

TEST(AdaptiveServe, ConcurrentMixedSubmittersAreRaceFree) {
  // TSan stress: adaptive and fixed Monte-Carlo requests race the
  // workers' dequeue scans; every future must resolve with a stamped result.
  ServiceOptions options;
  options.workers = 4;
  PredictionService service(options);
  service.register_model("sor", small_spec());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 40;
  std::atomic<std::size_t> resolved{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t variant = (i % 3 == 0) ? 0 : t * kPerThread + i;
        const PredictRequest request =
            i % 2 == 0 ? mc_request(variant, 600)
                       : mc_request(variant, 1'200, 0.08, true);
        const PredictResult r = service.submit(request).get();
        EXPECT_TRUE(r.ok() || r.status == PredictResult::Status::kRejected)
            << r.error;
        if (r.ok()) {
          EXPECT_GE(r.mc_trials, 2u);
        }
        resolved.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace sspred::serve
