#include "nws/forecasters.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.hpp"
#include "support/error.hpp"

namespace sspred::nws {

namespace {
[[nodiscard]] std::span<const double> tail(std::span<const double> xs,
                                           std::size_t window) {
  return xs.size() > window ? xs.subspan(xs.size() - window) : xs;
}

void check_prefixes(std::span<const double> history, std::size_t first,
                    std::span<const double> out) {
  SSPRED_REQUIRE(first >= 1, "forecaster needs history");
  SSPRED_REQUIRE(first <= history.size() &&
                     out.size() <= history.size() + 1 - first,
                 "forecast prefixes run past the history");
}

/// out[k] = stats::mean(tail(history.first(first + k), window)): every
/// window is summed in order from 0.0, as mean() sums it, so each prefix
/// has mean()'s bits. (A running window sum would round differently.)
void tail_means(std::span<const double> history, std::size_t window,
                std::size_t first, std::span<double> out) {
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = stats::mean(tail(history.first(first + k), window));
  }
}
}  // namespace

double Forecaster::predict(std::span<const double> history) const {
  SSPRED_REQUIRE(!history.empty(), "forecaster needs history");
  double forecast = 0.0;
  predict_prefixes(history, history.size(), std::span<double>(&forecast, 1));
  return forecast;
}

void LastValue::predict_prefixes(std::span<const double> history,
                                 std::size_t first,
                                 std::span<double> out) const {
  check_prefixes(history, first, out);
  std::copy_n(history.begin() + static_cast<std::ptrdiff_t>(first - 1),
              out.size(), out.begin());
}

void RunningMean::predict_prefixes(std::span<const double> history,
                                   std::size_t first,
                                   std::span<double> out) const {
  check_prefixes(history, first, out);
  // One running sum, left to right from 0.0: each prefix's partial sum is
  // the sum stats::mean() takes over that prefix.
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < first; ++i) sum += history[i];
  for (std::size_t k = 0; k < out.size(); ++k) {
    sum += history[first + k - 1];
    out[k] = sum / static_cast<double>(first + k);
  }
}

SlidingMean::SlidingMean(std::size_t window) : window_(window) {
  SSPRED_REQUIRE(window >= 1, "window must be >= 1");
}

void SlidingMean::predict_prefixes(std::span<const double> history,
                                   std::size_t first,
                                   std::span<double> out) const {
  check_prefixes(history, first, out);
  tail_means(history, window_, first, out);
}

std::string SlidingMean::name() const {
  return "mean" + std::to_string(window_);
}

SlidingMedian::SlidingMedian(std::size_t window) : window_(window) {
  SSPRED_REQUIRE(window >= 1, "window must be >= 1");
}

void SlidingMedian::predict_prefixes(std::span<const double> history,
                                     std::size_t first,
                                     std::span<double> out) const {
  check_prefixes(history, first, out);
  // The window holds the multiset stats::median() sorts, kept sorted as
  // it slides: one insert and one erase per prefix. Inserting after equal
  // values keeps equal values in arrival order, so the value leaving is
  // the first of its equals. Sorted arrays of one multiset are the same
  // array except where -0.0 and +0.0, which compare equal, trade places,
  // so a window holding a negative zero is left to stats::median().
  std::vector<double> window;
  window.reserve(std::min(window_, history.size()) + 1);
  std::size_t negative_zeros = 0;
  const auto is_negative_zero = [](double x) {
    return x == 0.0 && std::signbit(x);
  };
  const auto insert = [&](double x) {
    SSPRED_REQUIRE(!std::isnan(x), "median window cannot order a NaN");
    window.insert(std::ranges::upper_bound(window, x), x);
    negative_zeros += is_negative_zero(x) ? 1 : 0;
  };
  for (const double x : tail(history.first(first), window_)) insert(x);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t n = first + k;
    if (k > 0) {
      insert(history[n - 1]);
      if (n > window_) {
        const double gone = history[n - 1 - window_];
        window.erase(std::ranges::lower_bound(window, gone));
        negative_zeros -= is_negative_zero(gone) ? 1 : 0;
      }
    }
    out[k] = negative_zeros == 0
                 ? stats::quantile_sorted(window, 0.5)
                 : stats::median(tail(history.first(n), window_));
  }
}

std::string SlidingMedian::name() const {
  return "median" + std::to_string(window_);
}

ExpSmoothing::ExpSmoothing(double alpha) : alpha_(alpha) {
  SSPRED_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
}

void ExpSmoothing::predict_prefixes(std::span<const double> history,
                                    std::size_t first,
                                    std::span<double> out) const {
  check_prefixes(history, first, out);
  double s = history.front();
  for (std::size_t i = 1; i < first; ++i) {
    s = alpha_ * history[i] + (1.0 - alpha_) * s;
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k > 0) s = alpha_ * history[first + k - 1] + (1.0 - alpha_) * s;
    out[k] = s;
  }
}

std::string ExpSmoothing::name() const {
  return "expsm" + std::to_string(static_cast<int>(alpha_ * 100.0));
}

AdaptiveMean::AdaptiveMean(std::vector<std::size_t> windows)
    : windows_(std::move(windows)) {
  SSPRED_REQUIRE(!windows_.empty(), "adaptive mean needs candidate windows");
  SSPRED_REQUIRE(std::is_sorted(windows_.begin(), windows_.end()),
                 "candidate windows must be ascending");
  SSPRED_REQUIRE(windows_.front() >= 1, "windows must be >= 1");
}

void AdaptiveMean::predict_prefixes(std::span<const double> history,
                                    std::size_t first,
                                    std::span<double> out) const {
  check_prefixes(history, first, out);
  if (out.empty()) return;
  // The forecast from prefix n postcasts each candidate window over the
  // prefix's most recent quarter (at least 4 points), positions
  // [eval_begin(n), n), and averages over the window with the lowest MSE.
  const auto eval_begin = [](std::size_t n) {
    const std::size_t eval_points = std::max<std::size_t>(4, n / 4);
    return n > eval_points ? n - eval_points : std::size_t{1};
  };
  // eval_begin never decreases with n, so positions [lo, last] cover every
  // prefix's postcast and forecast. Each window's tail mean and squared
  // one-step error are computed once per position; each prefix then
  // re-sums its own slice of errors in ascending order from 0.0, so its
  // MSE has the bits of a postcast made for that prefix alone.
  const std::size_t last = first + out.size() - 1;
  const std::size_t lo = eval_begin(first);
  const std::size_t positions = last + 1 - lo;
  std::vector<double> means(windows_.size() * positions);
  std::vector<double> sq_errors(windows_.size() * positions);
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const std::span<double> m(means.data() + w * positions, positions);
    tail_means(history, windows_[w], lo, m);
    double* const e = sq_errors.data() + w * positions;
    for (std::size_t i = lo; i < last; ++i) {
      const double err = m[i - lo] - history[i];
      e[i - lo] = err * err;
    }
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t n = first + k;
    const std::size_t begin = eval_begin(n);
    // A one-value prefix has nothing to postcast: the first window serves.
    std::size_t best = 0;
    double best_mse = std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; n > begin && w < windows_.size(); ++w) {
      const double* const e = sq_errors.data() + w * positions;
      double se = 0.0;
      for (std::size_t i = begin; i < n; ++i) se += e[i - lo];
      const double mse = se / static_cast<double>(n - begin);
      if (mse < best_mse) {
        best_mse = mse;
        best = w;
      }
    }
    out[k] = means[best * positions + (n - lo)];
  }
}

std::vector<std::unique_ptr<Forecaster>> default_bank() {
  std::vector<std::unique_ptr<Forecaster>> bank;
  bank.push_back(std::make_unique<LastValue>());
  bank.push_back(std::make_unique<RunningMean>());
  for (std::size_t w : {5, 10, 20, 50}) {
    bank.push_back(std::make_unique<SlidingMean>(w));
  }
  for (std::size_t w : {5, 15, 31}) {
    bank.push_back(std::make_unique<SlidingMedian>(w));
  }
  for (double a : {0.2, 0.5, 0.8}) {
    bank.push_back(std::make_unique<ExpSmoothing>(a));
  }
  bank.push_back(std::make_unique<AdaptiveMean>());
  return bank;
}

}  // namespace sspred::nws
