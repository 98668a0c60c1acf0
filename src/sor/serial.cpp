#include "sor/serial.hpp"

#include <cmath>
#include <numbers>

#include "support/error.hpp"

namespace sspred::sor {

double SerialSor::optimal_omega(std::size_t n) {
  return 2.0 / (1.0 + std::sin(std::numbers::pi /
                               (static_cast<double>(n) + 1.0)));
}

SerialSor::SerialSor(std::size_t n, double omega)
    : n_(n),
      stride_(n + 2),
      h_(1.0 / (static_cast<double>(n) + 1.0)),
      omega_(omega > 0.0 ? omega : optimal_omega(n)),
      u_(stride_ * stride_, 0.0),
      f_(stride_ * stride_, 0.0) {
  SSPRED_REQUIRE(n >= 2, "SOR grid needs n >= 2");
  SSPRED_REQUIRE(omega_ > 0.0 && omega_ < 2.0, "omega must be in (0,2)");
  constexpr double pi = std::numbers::pi;
  for (std::size_t i = 1; i <= n_; ++i) {
    const double y = static_cast<double>(i) * h_;
    for (std::size_t j = 1; j <= n_; ++j) {
      const double x = static_cast<double>(j) * h_;
      f_[i * stride_ + j] =
          2.0 * pi * pi * std::sin(pi * x) * std::sin(pi * y);
    }
  }
}

void SerialSor::sweep(bool red, std::size_t row_begin, std::size_t row_end) {
  SSPRED_REQUIRE(row_end <= n_ && row_begin <= row_end,
                 "sweep rows out of range");
  const double h2 = h_ * h_;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t i = r + 1;  // storage row
    // Red cells have (i + j) even in storage coordinates.
    const std::size_t parity = red ? 0 : 1;
    std::size_t j = 2 - ((i + parity) % 2);  // first j >= 1 with right parity
    double* row = &u_[i * stride_];
    const double* above = row - stride_;
    const double* below = row + stride_;
    const double* frow = &f_[i * stride_];
    for (; j <= n_; j += 2) {
      const double gs =
          0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1] + h2 * frow[j]);
      row[j] += omega_ * (gs - row[j]);
    }
  }
}

void SerialSor::iterate(std::size_t iterations) {
  for (std::size_t k = 0; k < iterations; ++k) {
    sweep(/*red=*/true);
    sweep(/*red=*/false);
  }
}

double SerialSor::residual_norm() const {
  const double h2 = h_ * h_;
  double sum = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    for (std::size_t j = 1; j <= n_; ++j) {
      const double lap = (u_[(i - 1) * stride_ + j] + u_[(i + 1) * stride_ + j] +
                          u_[i * stride_ + j - 1] + u_[i * stride_ + j + 1] -
                          4.0 * u_[i * stride_ + j]) /
                         h2;
      const double r = f_[i * stride_ + j] + lap;
      sum += r * r;
    }
  }
  return std::sqrt(sum * h2);
}

double SerialSor::solution_error() const {
  constexpr double pi = std::numbers::pi;
  double worst = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    const double y = static_cast<double>(i) * h_;
    for (std::size_t j = 1; j <= n_; ++j) {
      const double x = static_cast<double>(j) * h_;
      const double exact = std::sin(pi * x) * std::sin(pi * y);
      worst = std::max(worst, std::abs(u_[i * stride_ + j] - exact));
    }
  }
  return worst;
}

double SerialSor::at(std::size_t row, std::size_t col) const {
  SSPRED_REQUIRE(row < n_ && col < n_, "interior index out of range");
  return u_[(row + 1) * stride_ + col + 1];
}

double* SerialSor::raw_row(std::size_t storage_row) {
  SSPRED_REQUIRE(storage_row < stride_, "storage row out of range");
  return &u_[storage_row * stride_];
}

const double* SerialSor::raw_row(std::size_t storage_row) const {
  SSPRED_REQUIRE(storage_row < stride_, "storage row out of range");
  return &u_[storage_row * stride_];
}

double SerialSor::source(std::size_t row, std::size_t col) const {
  SSPRED_REQUIRE(row < n_ && col < n_, "interior index out of range");
  return f_[(row + 1) * stride_ + col + 1];
}

}  // namespace sspred::sor
