// StochasticValue — the paper's core abstraction (§1.1, §2.1).
//
// A stochastic value represents a model parameter or prediction as a range
// of likely values: a mean plus a halfwidth equal to TWO standard
// deviations of an assumed-normal distribution (so the interval
// [mean - halfwidth, mean + halfwidth] covers ~95% of a truly normal
// quantity). A point value is the degenerate case halfwidth == 0.
#pragma once

#include <cmath>
#include <iosfwd>
#include <span>
#include <string>

#include "stats/distributions.hpp"
#include "support/error.hpp"

namespace sspred::stoch {

class StochasticValue {
 public:
  /// Zero point value.
  constexpr StochasticValue() noexcept = default;

  /// `mean ± halfwidth`, halfwidth in absolute units (two standard
  /// deviations). Requires halfwidth >= 0 and both finite.
  StochasticValue(double mean, double halfwidth)
      : mean_(mean), half_(halfwidth) {
    SSPRED_REQUIRE(halfwidth >= 0.0, "stochastic halfwidth must be >= 0");
    SSPRED_REQUIRE(std::isfinite(mean) && std::isfinite(halfwidth),
                   "stochastic value must be finite");
  }

  /// Implicit from double: a point value (the paper treats a point value
  /// as a stochastic value with all probability at one point).
  constexpr StochasticValue(double point) noexcept  // NOLINT(google-explicit-constructor)
      : mean_(point) {}

  /// Point value factory (reads better at call sites than the implicit).
  [[nodiscard]] static StochasticValue point(double v) noexcept;

  /// `mean ± percent%` — the paper's percentage form, e.g. 12 s ± 30%.
  /// Translated algebraically to an absolute range (paper footnote 3).
  [[nodiscard]] static StochasticValue from_percent(double mean,
                                                    double percent);

  /// From a normal's (mean, sd): halfwidth = 2*sd.
  [[nodiscard]] static StochasticValue from_mean_sd(double mean, double sd);

  /// Summarizes a sample as mean ± 2·(sample sd).
  [[nodiscard]] static StochasticValue from_sample(std::span<const double> xs);

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double halfwidth() const noexcept { return half_; }
  /// One standard deviation (halfwidth is two).
  [[nodiscard]] double sd() const noexcept { return half_ / 2.0; }
  [[nodiscard]] double lower() const noexcept { return mean_ - half_; }
  [[nodiscard]] double upper() const noexcept { return mean_ + half_; }
  [[nodiscard]] bool is_point() const noexcept { return half_ == 0.0; }
  /// Relative halfwidth |halfwidth / mean|; requires mean != 0.
  [[nodiscard]] double relative() const;

  /// The associated normal distribution N(mean, sd). Requires halfwidth>0.
  [[nodiscard]] stats::Normal to_normal() const;

  /// True when v lies inside [lower(), upper()].
  [[nodiscard]] bool contains(double v) const noexcept {
    return v >= lower() && v <= upper();
  }

  /// Paper footnote 6: the error between a value v outside the range and
  /// the stochastic value is the minimum distance between v and
  /// [mean-halfwidth, mean+halfwidth]; zero when v is inside.
  [[nodiscard]] double out_of_range_distance(double v) const noexcept;

  /// "12.00 ± 0.60" — the paper's reporting format.
  [[nodiscard]] std::string to_string(int precision = 3) const;

  friend bool operator==(const StochasticValue&,
                         const StochasticValue&) noexcept = default;

 private:
  double mean_ = 0.0;
  double half_ = 0.0;
};

std::ostream& operator<<(std::ostream& os, const StochasticValue& v);

}  // namespace sspred::stoch
