// Unit tests for the Network Weather Service clone: forecasters, dynamic
// selection, sensors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "nws/forecasters.hpp"
#include "nws/sensor.hpp"
#include "nws/service.hpp"
#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::nws {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Forecasters, LastValue) {
  const std::vector<double> h{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(LastValue().predict(h), 3.0);
}

TEST(Forecasters, RunningMean) {
  const std::vector<double> h{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(RunningMean().predict(h), 2.5);
}

TEST(Forecasters, SlidingMeanUsesWindowOnly) {
  const std::vector<double> h{100.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(SlidingMean(3).predict(h), 2.0);
  EXPECT_DOUBLE_EQ(SlidingMean(10).predict(h), 26.5);  // whole history
}

TEST(Forecasters, SlidingMedianRobustToSpike) {
  const std::vector<double> h{1.0, 1.0, 50.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(SlidingMedian(5).predict(h), 1.0);
}

TEST(Forecasters, ExpSmoothingConvergesToConstant) {
  std::vector<double> h(50, 4.2);
  EXPECT_NEAR(ExpSmoothing(0.3).predict(h), 4.2, 1e-9);
}

TEST(Forecasters, ExpSmoothingTracksTrend) {
  std::vector<double> h;
  for (int i = 0; i < 20; ++i) h.push_back(static_cast<double>(i));
  // High-gain smoothing should be close to the latest values.
  EXPECT_GT(ExpSmoothing(0.8).predict(h), 15.0);
}

TEST(Forecasters, InvalidConstruction) {
  EXPECT_THROW(SlidingMean(0), support::Error);
  EXPECT_THROW(ExpSmoothing(0.0), support::Error);
  EXPECT_THROW(ExpSmoothing(1.5), support::Error);
}

TEST(Forecasters, DefaultBankHasVariety) {
  const auto bank = default_bank();
  EXPECT_GE(bank.size(), 8u);
  std::vector<std::string> names;
  for (const auto& f : bank) names.push_back(f->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Forecasters, PrefixPassesMatchOnePrefixAtATime) {
  // A pass from any first prefix gives each prefix the bits of a pass
  // over that prefix alone, for every forecaster in the bank. Ties and
  // signed zeros exercise the sorted median window; infinities the
  // arithmetic of the means.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double pool[] = {0.0, -0.0, 0.5, 1.0, -1.0, kInf};
  const auto bank = default_bank();
  support::Rng rng(2024);
  for (int trial = 0; trial < 90; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(200);
    std::vector<double> h(n);
    for (double& x : h) {
      switch (trial % 3) {
        case 0:
          x = rng.normal(0.5, 0.1);
          break;
        case 1:
          x = 0.25 * static_cast<double>(rng.uniform_int(3));
          break;
        default:
          x = pool[rng.uniform_int(trial % 2 == 0 ? 3 : std::size(pool))];
          break;
      }
    }
    const std::size_t first = 1 + rng.uniform_int(n);
    std::vector<double> out(rng.uniform_int(n + 2 - first));
    for (const auto& f : bank) {
      f->predict_prefixes(h, first, out);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const std::span<const double> prefix(h.data(), first + k);
        EXPECT_EQ(bits(out[k]), bits(f->predict(prefix)))
            << f->name() << ", trial " << trial << ", prefix " << first + k;
      }
    }
  }
}

TEST(Forecasters, SlidingMedianIsStatsMedianOfTheWindow) {
  // stats::median sorts a copy, and std::sort may leave -0.0 and +0.0 in
  // either order; the sliding window must still return its bits.
  const double pool[] = {0.0, -0.0, 0.5};
  support::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> h(1 + rng.uniform_int(120));
    for (double& x : h) x = pool[rng.uniform_int(std::size(pool))];
    const std::size_t first = 1 + rng.uniform_int(h.size());
    std::vector<double> out(h.size() + 1 - first);
    for (const std::size_t w : {5, 15, 31}) {
      SlidingMedian(w).predict_prefixes(h, first, out);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const std::span<const double> prefix(h.data(), first + k);
        const auto window =
            prefix.subspan(prefix.size() > w ? prefix.size() - w : 0);
        EXPECT_EQ(bits(out[k]), bits(stats::median(window)))
            << "median" << w << ", trial " << trial << ", prefix "
            << first + k;
      }
    }
  }
}

TEST(Forecasters, PrefixRangeIsChecked) {
  const std::vector<double> h{1.0, 2.0, 3.0};
  std::vector<double> out(3);
  for (const auto& f : default_bank()) {
    EXPECT_THROW(f->predict_prefixes(h, 0, std::span(out).first(1)),
                 support::Error)
        << f->name();
    EXPECT_THROW(f->predict_prefixes(h, 2, out), support::Error) << f->name();
    EXPECT_THROW((void)f->predict(std::span<const double>()), support::Error)
        << f->name();
    EXPECT_NO_THROW(f->predict_prefixes(h, 1, out)) << f->name();
  }
}

TEST(Forecasters, SlidingMedianRejectsNaN) {
  const std::vector<double> h{1.0, std::numeric_limits<double>::quiet_NaN(),
                              2.0};
  EXPECT_THROW((void)SlidingMedian(5).predict(h), support::Error);
}

TEST(Service, HistoryCapEnforced) {
  ServiceOptions opts;
  opts.history_capacity = 16;
  Service svc(opts);
  for (int i = 0; i < 100; ++i) {
    svc.observe("cpu/x", static_cast<double>(i));
  }
  EXPECT_EQ(svc.history_size("cpu/x"), 16u);
  EXPECT_DOUBLE_EQ(svc.history("cpu/x").front(), 84.0);  // oldest kept
}

TEST(Service, UnknownResourceThrows) {
  Service svc;
  EXPECT_THROW((void)svc.history("cpu/nope"), support::Error);
  EXPECT_THROW((void)svc.forecast("cpu/nope"), support::Error);
  EXPECT_EQ(svc.history_size("cpu/nope"), 0u);
}

TEST(Service, ForecastOfConstantSeriesIsExact) {
  Service svc;
  for (int i = 0; i < 60; ++i) svc.observe("cpu/c", 0.48);
  const Forecast f = svc.forecast("cpu/c");
  EXPECT_DOUBLE_EQ(f.value, 0.48);
  EXPECT_DOUBLE_EQ(f.error_sd, 0.0);
  EXPECT_TRUE(f.sv().is_point());
}

TEST(Service, ForecastTracksNoisyStationarySeries) {
  Service svc;
  support::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    svc.observe("cpu/n", rng.normal(0.48, 0.025));
  }
  const Forecast f = svc.forecast("cpu/n");
  EXPECT_NEAR(f.value, 0.48, 0.02);
  EXPECT_GT(f.error_sd, 0.0);
  EXPECT_LT(f.error_sd, 0.08);
  // The ±2sd stochastic value should cover the process mean comfortably.
  EXPECT_TRUE(f.sv().contains(0.48));
}

TEST(Service, MeanBeatsLastValueOnWhiteNoise) {
  Service svc;
  support::Rng rng(7);
  for (int i = 0; i < 300; ++i) svc.observe("cpu/w", rng.normal(0.5, 0.1));
  const auto errors = svc.postcast_errors("cpu/w");
  double last_mse = -1.0;
  double best_mean_mse = 1e9;
  for (const auto& [name, mse] : errors) {
    if (name == "last") last_mse = mse;
    if (name.find("mean") != std::string::npos) {
      best_mean_mse = std::min(best_mean_mse, mse);
    }
  }
  ASSERT_GE(last_mse, 0.0);
  EXPECT_LT(best_mean_mse, last_mse);
}

TEST(Service, LastValueWinsOnRandomWalk) {
  Service svc;
  support::Rng rng(9);
  double x = 0.0;
  for (int i = 0; i < 300; ++i) {
    x += rng.normal(0.0, 1.0);
    svc.observe("cpu/rw", x);
  }
  const Forecast f = svc.forecast("cpu/rw");
  // On a random walk, trackers (last value / high-gain smoothing) dominate
  // long averages.
  EXPECT_TRUE(f.forecaster == "last" || f.forecaster.find("expsm") == 0 ||
              f.forecaster == "mean5" || f.forecaster == "median5")
      << "winner was " << f.forecaster;
}

TEST(Service, ForecastRequiresWarmup) {
  Service svc;
  for (int i = 0; i < 5; ++i) svc.observe("cpu/short", 1.0);
  EXPECT_THROW((void)svc.forecast("cpu/short"), support::Error);
}

// --- Pinned bits -----------------------------------------------------------
//
// forecast() and postcast_errors() on seeded series, as hexfloats. The
// table was recorded when the service postcast by calling each
// forecaster's predict() once per prefix of the history; the one-pass
// postcast must reproduce every bit.

enum class Series { kNoise, kWalk, kTied };

std::vector<double> make_series(Series kind, std::size_t count,
                                std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(count);
  double walk = 0.5;
  for (std::size_t i = 0; i < count; ++i) {
    switch (kind) {
      case Series::kNoise:
        xs.push_back(rng.normal(0.5, 0.1));
        break;
      case Series::kWalk:
        walk += rng.normal(0.0, 0.05);
        xs.push_back(walk);
        break;
      case Series::kTied:  // three levels: the median windows hold ties
        xs.push_back(0.25 * static_cast<double>(1 + rng.uniform_int(3)));
        break;
    }
  }
  return xs;
}

struct PinnedForecast {
  double value;
  double error_sd;
  const char* winner;
  double mse[13];  ///< postcast_errors(), in default_bank() order
};

// Series kinds {noise, walk, tied} x capacities {16, 64, 512}, each fed
// capacity + 40 observations, so every history has slid.
constexpr PinnedForecast kPinned[] = {
    {0x1.ff048d776aa22p-2, 0x1.d847814b99d74p-4, "median15",  // noise, capacity 16
     {0x1.7b7e2c5f0340cp-6, 0x1.d6c951b443aaep-7, 0x1.045b20c7fb3f2p-6,
      0x1.faab28e428a0ep-7, 0x1.d6c951b443aaep-7, 0x1.d6c951b443aaep-7,
      0x1.e36c9df4cd89cp-7, 0x1.b3a3e05fe0433p-7, 0x1.b3a3e05fe0433p-7,
      0x1.0122154c85ebcp-6, 0x1.22d31a71635dep-6, 0x1.5b17d1b7f73b1p-6,
      0x1.fbe9783d603aep-7}},
    {0x1.ecb2421c71452p-2, 0x1.b5fea7c45d181p-4, "mean",  // noise, capacity 64
     {0x1.7bd4c172361c1p-6, 0x1.76afb30adeb76p-7, 0x1.8bfaae5f910b9p-7,
      0x1.980850060e29ap-7, 0x1.879ee97a107edp-7, 0x1.78fc9b2db2ed7p-7,
      0x1.92001a53d5a89p-7, 0x1.a49abcbc7d275p-7, 0x1.88f683791fc2dp-7,
      0x1.9418fea8ae04p-7, 0x1.ebd1ed99bce6p-7, 0x1.3b34ef663db65p-6,
      0x1.8f4c42ad4de67p-7}},
    {0x1.01b914a18cc8ap-1, 0x1.a93fc1d0e7ca3p-4, "mean",  // noise, capacity 512
     {0x1.7993395b63afbp-6, 0x1.613260b44c961p-7, 0x1.a43735013cde6p-7,
      0x1.7ec88b6c5afe6p-7, 0x1.6f6425bf39d9cp-7, 0x1.61d5b0bf1128cp-7,
      0x1.cb8b07894cadbp-7, 0x1.73eee195c73d3p-7, 0x1.669e2b1aec17cp-7,
      0x1.8c68841f6f788p-7, 0x1.e92411e180818p-7, 0x1.37d1c9b0e8e1ep-6,
      0x1.6930b9e26f3f3p-7}},
    {0x1.d03c2abbdde91p-1, 0x1.6f29e4444a158p-5, "expsm80",  // walk, capacity 16
     {0x1.0c649088bebd3p-9, 0x1.39e3df96f38fp-8, 0x1.288b4c6850265p-8,
      0x1.2c8ef86420ef2p-8, 0x1.39e3df96f38fp-8, 0x1.39e3df96f38fp-8,
      0x1.5399dd0884357p-8, 0x1.12122922a2a5bp-8, 0x1.12122922a2a5bp-8,
      0x1.b730f8f187f6p-9, 0x1.4439031dc7b4dp-9, 0x1.074c91ab5ae98p-9,
      0x1.2c2859dd9ae7bp-8}},
    {0x1.13c243ef9f4bfp+0, 0x1.572ea8e6359efp-5, "expsm80",  // walk, capacity 64
     {0x1.df1c4ad11f59dp-10, 0x1.177515d6434e3p-6, 0x1.a40f313439681p-9,
      0x1.93a1ddafed3c9p-8, 0x1.54d7654549429p-7, 0x1.11ec86f77468dp-6,
      0x1.9eeea64a62e1p-9, 0x1.3a19908b2398fp-7, 0x1.dca8f3ff8292ep-7,
      0x1.246209c6fb0f7p-8, 0x1.0d1470f323182p-9, 0x1.cc0e111a05da1p-10,
      0x1.e318e2e707887p-9}},
    {0x1.3fcb880364d49p+1, 0x1.9a5d4e7a3d92fp-5, "last",  // walk, capacity 512
     {0x1.48e780b0d50d1p-9, 0x1.bdba31ab1f936p-2, 0x1.5e2d0b6816297p-8,
      0x1.2e6bdd010df6fp-7, 0x1.158df625f5a37p-6, 0x1.48e832d4dd32fp-5,
      0x1.809df7d028151p-8, 0x1.dbb95c5ec3621p-7, 0x1.d3addea997625p-6,
      0x1.b4a6f28c91797p-8, 0x1.ae605388a5bf4p-9, 0x1.54e9c6fd83da5p-9,
      0x1.62694b68075e4p-8}},
    {0x1.ccccccccccccdp-2, 0x1.9e5f487d1b20dp-3, "mean5",  // tied, capacity 16
     {0x1.6p-4, 0x1.5579aa53c1feap-5, 0x1.4f5c28f5c28f7p-5,
      0x1.5fb851eb851edp-5, 0x1.5579aa53c1feap-5, 0x1.5579aa53c1feap-5,
      0x1p-4, 0x1.ap-5, 0x1.ap-5,
      0x1.7975d12365a5ep-5, 0x1.9c6c7adp-5, 0x1.0fb305b3dfbecp-4,
      0x1.8433924f16509p-5}},
    {0x1.8p-1, 0x1.94c583ada5b53p-3, "median15",  // tied, capacity 64
     {0x1.2924924924925p-4, 0x1.4afbef899e383p-5, 0x1.7a83a83a83a81p-5,
      0x1.52e2be2be2be5p-5, 0x1.4cf30698ea35bp-5, 0x1.4a00f2485d62dp-5,
      0x1.c924924924925p-5, 0x1.4p-5, 0x1.5249249249249p-5,
      0x1.5a6ed336a4f15p-5, 0x1.9cd5363e05b07p-5, 0x1.fd6051981023ap-5,
      0x1.72557f8853dd7p-5}},
    {0x1.004p-1, 0x1.a0a7a902a7df8p-3, "mean",  // tied, capacity 512
     {0x1.441041041041p-4, 0x1.5310a98b4950fp-5, 0x1.8f9a9342cdc71p-5,
      0x1.6b0d4cd754b9dp-5, 0x1.6120acad561bcp-5, 0x1.5a07c2ec377d8p-5,
      0x1.fdf7df7df7df8p-5, 0x1.9baebaebaebafp-5, 0x1.7186186186186p-5,
      0x1.72ee3c1c39c22p-5, 0x1.be0af4ce75e99p-5, 0x1.12d15fa7c29f9p-4,
      0x1.605466cc484cp-5}},
};

TEST(NwsGolden, ForecastsAndPostcastsKeepTheirBits) {
  const Series kinds[] = {Series::kNoise, Series::kWalk, Series::kTied};
  const std::size_t capacities[] = {16, 64, 512};
  std::size_t c = 0;
  for (int k = 0; k < 3; ++k) {
    for (const std::size_t capacity : capacities) {
      const PinnedForecast& pin = kPinned[c++];
      ServiceOptions opts;
      opts.history_capacity = capacity;
      Service svc(opts);
      for (const double x :
           make_series(kinds[k], capacity + 40, 100 * (k + 1) + capacity)) {
        svc.observe("r", x);
      }
      const std::string what =
          "series " + std::to_string(k) + ", capacity " + std::to_string(capacity);
      const Forecast f = svc.forecast("r");
      EXPECT_EQ(bits(f.value), bits(pin.value)) << what;
      EXPECT_EQ(bits(f.error_sd), bits(pin.error_sd)) << what;
      EXPECT_EQ(f.forecaster, pin.winner) << what;
      const auto errors = svc.postcast_errors("r");
      ASSERT_EQ(errors.size(), std::size(pin.mse)) << what;
      for (std::size_t i = 0; i < errors.size(); ++i) {
        EXPECT_EQ(bits(errors[i].second), bits(pin.mse[i]))
            << what << ", " << errors[i].first;
      }
    }
  }
}

TEST(Sensor, IngestSamplesTraceWindow) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(1), 1);
  Service svc;
  ingest_cpu_history(platform.machine(0), svc, 0.0, 250.0, 5.0);
  EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(0))), 50u);
}

TEST(Sensor, ProcessSamplesAtInterval) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(1), 1);
  Service svc;
  eng.spawn(cpu_sensor(eng, platform.machine(0), svc, 5.0, 100.0));
  eng.run();
  EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(0))), 20u);
  EXPECT_GE(eng.now(), 100.0);
}

TEST(Sensor, AttachCoversAllHosts) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(3), 1);
  Service svc;
  attach_cpu_sensors(eng, platform, svc, 5.0, 50.0);
  eng.run();
  for (std::size_t i = 0; i < platform.size(); ++i) {
    EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(i))), 10u);
  }
}

TEST(Sensor, ForecastFromGeneratedQuietTraceIsTight) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::platform1(), 5);
  Service svc;
  // Host 0 carries the paper's centre-mode load 0.48 ± 0.05.
  ingest_cpu_history(platform.machine(0), svc, 0.0, 400.0, 5.0);
  const Forecast f = svc.forecast(cpu_resource(platform.machine(0)));
  EXPECT_NEAR(f.value, 0.48, 0.05);
  EXPECT_LT(f.sv().halfwidth(), 0.15);
}

}  // namespace
}  // namespace sspred::nws
