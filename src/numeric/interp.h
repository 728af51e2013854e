// Monotone piecewise-cubic (Fritsch–Carlson) interpolation, used to cache
// expensive pF(W) evaluations along a sweep and to read intersections off
// digitised curves (the "draw a horizontal line on Fig 2.1" procedure).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace cny::numeric {

/// Monotone cubic Hermite interpolant through (x_i, y_i), x strictly
/// increasing. If the data are monotone, the interpolant is too (no
/// overshoot) — important when inverting pF(W) curves.
class MonotoneCubic {
 public:
  MonotoneCubic(std::vector<double> x, std::vector<double> y);

  /// Evaluates the interpolant; clamps outside [x_front, x_back].
  [[nodiscard]] double operator()(double x) const;

  /// Derivative of the interpolant (clamped endpoints give 0 outside).
  [[nodiscard]] double derivative(double x) const;

  [[nodiscard]] double x_min() const { return x_.front(); }
  [[nodiscard]] double x_max() const { return x_.back(); }
  [[nodiscard]] std::size_t size() const { return x_.size(); }

 private:
  std::vector<double> x_, y_, m_;  // knots, values, tangents
};

/// MonotoneCubic over a function sampled on demand: each knot value is
/// filled on first use and published once, and a query fills only the
/// knots its segment needs. Every value equals the one
/// MonotoneCubic(x, {fill(x_0), ..., fill(x_{K-1})}) gives, bit for bit:
/// both evaluate through the same secant, tangent and Hermite code.
///
/// Locality certificate. The Fritsch–Carlson filter runs left to right and
/// a clip carries forward, so a segment can in principle depend on knots
/// far to its left. To read segment k the table fills knots k-2 .. k+3 and
/// checks that filter steps k-1, k and k+1 would not touch their tangents
/// with the *initial* tangents: each secant is nonzero and α²+β² stays
/// at or below 8, with margin under the filter's 9 for rounding. A clip
/// only ever shrinks the tangent it carries forward, so those three steps
/// pass in the sequential filter too and leave m_k and m_{k+1} at their
/// initial values. When the check fails, the table fills every knot and
/// takes the whole-table Fritsch–Carlson tangents instead.
///
/// Thread-safe: racing queries may fill the same knot twice, so `fill` must
/// be a pure function of x; both results are the same bits.
class LazyMonotoneCubic {
 public:
  /// The sampled function's value at a knot abscissa.
  using Fill = std::function<double(double)>;

  /// What one query had to do, for the caller's counters: knots it
  /// published, and whether it switched the table to whole-table tangents.
  struct Filled {
    std::size_t knots = 0;
    bool fallback = false;
  };

  explicit LazyMonotoneCubic(std::vector<double> x);
  LazyMonotoneCubic(const LazyMonotoneCubic&) = delete;
  LazyMonotoneCubic& operator=(const LazyMonotoneCubic&) = delete;

  /// The interpolant at `x` (clamped outside [x_front, x_back], where only
  /// that end knot is filled). `filled`, when given, accumulates the work.
  [[nodiscard]] double operator()(double x, const Fill& fill,
                                  Filled* filled = nullptr) const;

  [[nodiscard]] const std::vector<double>& knots() const { return x_; }

 private:
  [[nodiscard]] double knot_value(std::size_t i, const Fill& fill,
                                  Filled* filled) const;
  void fill_segment(std::size_t k, const Fill& fill, Filled* filled) const;
  void fall_back(const Fill& fill, Filled* filled) const;

  std::vector<double> x_;
  // Per knot: value and tangent; per knot and per segment: published flags.
  // A flag is raised (release) only after the slots it covers are stored.
  std::unique_ptr<std::atomic<double>[]> y_, m_;
  std::unique_ptr<std::atomic<bool>[]> y_ready_, segment_ready_;
  mutable std::atomic<bool> fell_back_{false};
};

}  // namespace cny::numeric
