#include "numeric/interp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "util/contracts.h"

namespace cny::numeric {

namespace {

// The pieces both tables are built from. MonotoneCubic and
// LazyMonotoneCubic evaluate through exactly these expressions, which is
// what makes their values agree bit for bit.

/// Largest α²+β² the lazy table's locality certificate accepts: the
/// Fritsch–Carlson filter clips above 9, and the margin absorbs the
/// rounding of a clipped tangent carried into a certified step.
constexpr double kLocalBound = 8.0;

double secant(double x0, double x1, double y0, double y1) {
  return (y1 - y0) / (x1 - x0);
}

double initial_tangent(double delta_prev, double delta_next) {
  return (delta_prev * delta_next <= 0.0) ? 0.0
                                          : 0.5 * (delta_prev + delta_next);
}

double hermite(double x0, double x1, double y0, double y1, double m0,
               double m1, double x) {
  const double h = x1 - x0;
  const double t = (x - x0) / h;
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2 * t3 - 3 * t2 + 1;
  const double h10 = t3 - 2 * t2 + t;
  const double h01 = -2 * t3 + 3 * t2;
  const double h11 = t3 - t2;
  return h00 * y0 + h10 * h * m0 + h01 * y1 + h11 * h * m1;
}

std::size_t segment_index(std::span<const double> xs, double x) {
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t idx = static_cast<std::size_t>(it - xs.begin());
  if (idx == 0) return 0;
  return std::min(idx - 1, xs.size() - 2);
}

std::vector<double> monotone_tangents(std::span<const double> xs,
                                      std::span<const double> ys) {
  const std::size_t n = xs.size();
  std::vector<double> delta(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    delta[i] = secant(xs[i], xs[i + 1], ys[i], ys[i + 1]);
  }
  std::vector<double> m(n, 0.0);
  m[0] = delta[0];
  m[n - 1] = delta[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    m[i] = initial_tangent(delta[i - 1], delta[i]);
  }
  // Fritsch–Carlson monotonicity filter.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (delta[i] == 0.0) {
      m[i] = 0.0;
      m[i + 1] = 0.0;
      continue;
    }
    const double a = m[i] / delta[i];
    const double b = m[i + 1] / delta[i];
    const double s = a * a + b * b;
    if (s > 9.0) {
      const double tau = 3.0 / std::sqrt(s);
      m[i] = tau * a * delta[i];
      m[i + 1] = tau * b * delta[i];
    }
  }
  return m;
}

}  // namespace

MonotoneCubic::MonotoneCubic(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  CNY_EXPECT(x_.size() == y_.size());
  CNY_EXPECT(x_.size() >= 2);
  for (std::size_t i = 1; i < x_.size(); ++i) {
    CNY_EXPECT_MSG(x_[i] > x_[i - 1], "knots must be strictly increasing");
  }
  m_ = monotone_tangents(x_, y_);
}

double MonotoneCubic::operator()(double x) const {
  if (x <= x_.front()) return y_.front();
  if (x >= x_.back()) return y_.back();
  const std::size_t i = segment_index(x_, x);
  return hermite(x_[i], x_[i + 1], y_[i], y_[i + 1], m_[i], m_[i + 1], x);
}

double MonotoneCubic::derivative(double x) const {
  if (x <= x_.front() || x >= x_.back()) return 0.0;
  const std::size_t i = segment_index(x_, x);
  const double h = x_[i + 1] - x_[i];
  const double t = (x - x_[i]) / h;
  const double t2 = t * t;
  const double dh00 = (6 * t2 - 6 * t) / h;
  const double dh10 = 3 * t2 - 4 * t + 1;
  const double dh01 = (-6 * t2 + 6 * t) / h;
  const double dh11 = 3 * t2 - 2 * t;
  return dh00 * y_[i] + dh10 * m_[i] + dh01 * y_[i + 1] + dh11 * m_[i + 1];
}

LazyMonotoneCubic::LazyMonotoneCubic(std::vector<double> x)
    : x_(std::move(x)),
      y_(std::make_unique<std::atomic<double>[]>(x_.size())),
      m_(std::make_unique<std::atomic<double>[]>(x_.size())),
      y_ready_(std::make_unique<std::atomic<bool>[]>(x_.size())),
      segment_ready_(std::make_unique<std::atomic<bool>[]>(x_.size())) {
  CNY_EXPECT(x_.size() >= 2);
  for (std::size_t i = 1; i < x_.size(); ++i) {
    CNY_EXPECT_MSG(x_[i] > x_[i - 1], "knots must be strictly increasing");
  }
}

double LazyMonotoneCubic::operator()(double x, const Fill& fill,
                                     Filled* filled) const {
  if (x <= x_.front()) return knot_value(0, fill, filled);
  if (x >= x_.back()) return knot_value(x_.size() - 1, fill, filled);
  const std::size_t k = segment_index(x_, x);
  if (!segment_ready_[k].load(std::memory_order_acquire)) {
    fill_segment(k, fill, filled);
  }
  return hermite(x_[k], x_[k + 1], y_[k].load(std::memory_order_relaxed),
                 y_[k + 1].load(std::memory_order_relaxed),
                 m_[k].load(std::memory_order_relaxed),
                 m_[k + 1].load(std::memory_order_relaxed), x);
}

double LazyMonotoneCubic::knot_value(std::size_t i, const Fill& fill,
                                     Filled* filled) const {
  if (y_ready_[i].load(std::memory_order_acquire)) {
    return y_[i].load(std::memory_order_relaxed);
  }
  const double y = fill(x_[i]);
  y_[i].store(y, std::memory_order_relaxed);
  if (!y_ready_[i].exchange(true, std::memory_order_acq_rel) &&
      filled != nullptr) {
    ++filled->knots;
  }
  return y;
}

void LazyMonotoneCubic::fill_segment(std::size_t k, const Fill& fill,
                                     Filled* filled) const {
  const std::size_t n = x_.size();
  const std::size_t lo = k >= 2 ? k - 2 : 0;
  const std::size_t hi = std::min(n - 1, k + 3);
  std::array<double, 6> ys{};
  for (std::size_t i = lo; i <= hi; ++i) {
    ys[i - lo] = knot_value(i, fill, filled);
  }
  const auto delta = [&](std::size_t i) {
    return secant(x_[i], x_[i + 1], ys[i - lo], ys[i + 1 - lo]);
  };
  // Initial tangents, as monotone_tangents sets them before its filter.
  const auto tangent = [&](std::size_t i) {
    if (i == 0) return delta(0);
    if (i == n - 1) return delta(n - 2);
    return initial_tangent(delta(i - 1), delta(i));
  };
  const std::size_t first = k >= 1 ? k - 1 : 0;
  const std::size_t last = std::min(k + 1, n - 2);
  for (std::size_t i = first; i <= last; ++i) {
    const double d = delta(i);
    const double a = tangent(i) / d;
    const double b = tangent(i + 1) / d;
    // Negated so a NaN sum also fails the certificate.
    if (d == 0.0 || !(a * a + b * b <= kLocalBound)) {
      fall_back(fill, filled);
      return;
    }
  }
  m_[k].store(tangent(k), std::memory_order_relaxed);
  m_[k + 1].store(tangent(k + 1), std::memory_order_relaxed);
  segment_ready_[k].store(true, std::memory_order_release);
}

void LazyMonotoneCubic::fall_back(const Fill& fill, Filled* filled) const {
  const std::size_t n = x_.size();
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = knot_value(i, fill, filled);
  // Certified segments already hold these same tangents (their filter
  // steps leave them alone), so rewriting them changes no bits.
  const std::vector<double> m = monotone_tangents(x_, ys);
  for (std::size_t i = 0; i < n; ++i) {
    m_[i].store(m[i], std::memory_order_relaxed);
  }
  for (std::size_t k = 0; k + 1 < n; ++k) {
    segment_ready_[k].store(true, std::memory_order_release);
  }
  if (!fell_back_.exchange(true, std::memory_order_acq_rel) &&
      filled != nullptr) {
    filled->fallback = true;
  }
}

}  // namespace cny::numeric
