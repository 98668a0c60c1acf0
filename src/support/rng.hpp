// Deterministic, explicitly-seeded random number generation.
//
// All randomness in the library flows through Rng so that every experiment
// is reproducible from a single seed. The generator is xoshiro256**
// (Blackman & Vigna), seeded through splitmix64; both are implemented here
// rather than taken from <random> so that streams are stable across
// standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace sspred::support {

/// splitmix64 step: used for seeding and for hashing seed material.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also be handed to
/// <random> adaptors, but the members below are the supported surface:
/// they produce identical streams on every platform.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  [[nodiscard]] result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Standard normal via Marsaglia's polar method (one value cached).
  [[nodiscard]] double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sd) noexcept;
  /// Standard normal via the Marsaglia-Tsang ziggurat (128 strips, 53-bit
  /// tables). One raw draw per value on the ~98.8% fast path, so it is the
  /// batch sampler's workhorse. Consumes the raw stream directly and never
  /// touches normal()'s cached spare, so the two methods produce
  /// independent, individually reproducible streams.
  [[nodiscard]] double normal_ziggurat() noexcept;
  /// Fills `out` with independent N(mean, sd) draws via the ziggurat:
  /// element k is mean + sd * (the k-th normal_ziggurat() value), and the
  /// stream ends where those calls would leave it.
  void normal_fill(std::span<double> out, double mean = 0.0,
                   double sd = 1.0) noexcept;
  /// Log-normal: exp(N(mu, sigma)) where mu/sigma are in log space.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;
  /// Exponential with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;
  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy tail).
  [[nodiscard]] double pareto(double x_m, double alpha) noexcept;

  /// Index in [0, weights.size()) chosen proportionally to `weights`.
  /// Weights must be non-negative with a positive sum.
  [[nodiscard]] std::size_t choose(std::span<const double> weights) noexcept;

  /// Derives an independent child generator (for per-component streams).
  [[nodiscard]] Rng split() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_int(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace sspred::support
