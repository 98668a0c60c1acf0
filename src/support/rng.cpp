#include "support/rng.hpp"

#include <cmath>

#include "support/error.hpp"

namespace sspred::support {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step. Inlined into normal_fill's loop, where `s` is a
/// local copy of the state that the compiler keeps in registers.
[[nodiscard]] inline std::uint64_t xoshiro_next(
    std::array<std::uint64_t, 4>& s) noexcept {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept { return xoshiro_next(state_); }

double Rng::uniform() noexcept {
  // 53 random bits into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation (simple rejection form).
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sd) noexcept {
  return mean + sd * normal();
}

namespace {

/// Marsaglia & Tsang's 128-strip ziggurat for the standard normal, scaled
/// to 53-bit integers (the double mantissa width) instead of the original
/// 32-bit tables. Built once from closed-form constants with the same
/// deterministic recurrence on every platform, so streams stay portable.
struct ZigguratTables {
  std::uint64_t kn[128];  ///< quick-accept thresholds, |hz| < kn[i]
  double wn[128];         ///< strip widths: x = hz * wn[i]
  double fn[128];         ///< pdf at each strip boundary
  ZigguratTables() noexcept {
    constexpr double m1 = 9007199254740992.0;  // 2^53
    const double vn = 9.91256303526217e-3;     // strip area
    double dn = 3.442619855899;                // tail boundary R
    double tn = dn;
    const double q = vn / std::exp(-0.5 * dn * dn);
    kn[0] = static_cast<std::uint64_t>((dn / q) * m1);
    kn[1] = 0;
    wn[0] = q / m1;
    wn[127] = dn / m1;
    fn[0] = 1.0;
    fn[127] = std::exp(-0.5 * dn * dn);
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn[i + 1] = static_cast<std::uint64_t>((dn / tn) * m1);
      tn = dn;
      fn[i] = std::exp(-0.5 * dn * dn);
      wn[i] = dn / m1;
    }
  }
};

const ZigguratTables& ziggurat_tables() noexcept {
  static const ZigguratTables tables;
  return tables;
}

/// The quick-accept test (~98.8% of draws): strip i = the low 7 bits;
/// the arithmetic shift keeps the sign, so hz is a signed 54-bit value
/// whose magnitude reuses 53 of the draw's high bits. Accepts when hz
/// lies inside the strip's rectangle, storing the normal in `z`.
[[nodiscard]] inline bool quick_accept(const ZigguratTables& t,
                                       std::uint64_t bits, double& z) noexcept {
  const std::size_t i = bits & 127;
  const std::int64_t hz = static_cast<std::int64_t>(bits) >> 10;
  // |hz| <= 2^53, so negation cannot overflow.
  const auto az = static_cast<std::uint64_t>(hz < 0 ? -hz : hz);
  z = static_cast<double>(hz) * t.wn[i];
  return az < t.kn[i];
}

/// The whole accept/reject loop, starting from the raw draw `bits`:
/// quick accept, then the tail (strip 0) or the wedge test, redrawing
/// from `rng` after a rejected wedge. Kept out of line so normal_fill's
/// loop carries only the quick-accept path.
[[gnu::noinline]] double ziggurat_from(const ZigguratTables& t, Rng& rng,
                                       std::uint64_t bits) noexcept {
  constexpr double kTail = 3.442619855899;  // = the tables' R
  for (;; bits = rng()) {
    double z = 0.0;
    if (quick_accept(t, bits, z)) return z;
    const std::size_t i = bits & 127;
    if (i == 0) {
      // Base strip: sample the tail x > R exactly (Marsaglia's method).
      double x = 0.0;
      double y = 0.0;
      do {
        x = -std::log(1.0 - rng.uniform()) / kTail;
        y = -std::log(1.0 - rng.uniform());
      } while (y + y < x * x);
      return z >= 0.0 ? kTail + x : -(kTail + x);  // z has hz's sign
    }
    if (t.fn[i] + rng.uniform() * (t.fn[i - 1] - t.fn[i]) <
        std::exp(-0.5 * z * z)) {
      return z;
    }
    // Wedge rejected: retry from a fresh strip.
  }
}

}  // namespace

double Rng::normal_ziggurat() noexcept {
  return ziggurat_from(ziggurat_tables(), *this, (*this)());
}

void Rng::normal_fill(std::span<double> out, double mean, double sd) noexcept {
  const ZigguratTables& t = ziggurat_tables();
  std::array<std::uint64_t, 4> s = state_;
  for (double& v : out) {
    const std::uint64_t bits = xoshiro_next(s);
    double z = 0.0;
    if (!quick_accept(t, bits, z)) [[unlikely]] {
      state_ = s;
      z = ziggurat_from(t, *this, bits);
      s = state_;
    }
    v = mean + sd * z;
  }
  state_ = s;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::pareto(double x_m, double alpha) noexcept {
  return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::size_t Rng::choose(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack lands on the last bin
}

Rng Rng::split() noexcept {
  std::uint64_t seed = (*this)();
  return Rng(seed);
}

}  // namespace sspred::support
