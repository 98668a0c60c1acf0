// Shared output helpers for the bench/experiment harness.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::bench {

/// CMAKE_BUILD_TYPE the bench binaries were compiled with ("Release",
/// "RelWithDebInfo", "Debug", ...). Timing artifacts are only meaningful
/// from optimized builds, so every bench records this prominently: the
/// banner prints it, and every BENCH_*.json carries it as `build_type`.
[[nodiscard]] const char* build_type() noexcept;

/// True for build types that optimize (Release / RelWithDebInfo /
/// MinSizeRel): the ones whose timings are comparable across runs and
/// whose perf floors are worth asserting.
[[nodiscard]] bool optimized_build() noexcept;

/// Prints a banner naming the paper artifact being regenerated (and the
/// build type the numbers come from).
void banner(const std::string& artifact, const std::string& description);

/// Prints a sub-section heading.
void section(const std::string& title);

/// Prints a "paper reports X / we measure Y" comparison line.
void compare_line(const std::string& metric, const std::string& paper,
                  const std::string& measured);

/// Renders a histogram of `xs` with a fitted-normal overlay column, the way
/// the paper's PDF figures pair the histogram with the normal curve.
void print_histogram_with_normal(std::span<const double> xs,
                                 std::size_t bins,
                                 const std::string& title,
                                 const std::string& x_label);

/// Renders the empirical CDF against the fitted normal CDF (the paper's
/// CDF figures).
void print_cdf_with_normal(std::span<const double> xs,
                           const std::string& title,
                           const std::string& x_label);

/// Renders a time series (paper's load/time-trace figures).
void print_series(std::span<const double> ys, const std::string& title,
                  const std::string& y_label);

}  // namespace sspred::bench
