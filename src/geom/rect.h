// Axis-aligned 2-D geometry for cell layouts and growth-field rendering.
// Convention throughout the library (matches Fig 3.1/3.2 of the paper):
//   x — the CNT growth direction (along a standard-cell row)
//   y — perpendicular to the CNTs; a CNFET's *width* W extends in y.
#pragma once

#include "geom/interval.h"

namespace cny::geom {

struct Point {
  double x = 0.0;
  double y = 0.0;
  friend bool operator==(const Point&, const Point&) = default;
};

struct Rect {
  double x = 0.0;  ///< left edge
  double y = 0.0;  ///< bottom edge
  double w = 0.0;  ///< extent in x
  double h = 0.0;  ///< extent in y

  [[nodiscard]] double left() const { return x; }
  [[nodiscard]] double right() const { return x + w; }
  [[nodiscard]] double bottom() const { return y; }
  [[nodiscard]] double top() const { return y + h; }
  [[nodiscard]] double area() const { return w * h; }
  [[nodiscard]] bool empty() const { return w <= 0.0 || h <= 0.0; }

  [[nodiscard]] Interval x_span() const { return {x, x + w}; }
  [[nodiscard]] Interval y_span() const { return {y, y + h}; }

  [[nodiscard]] bool contains(const Point& p) const {
    return p.x >= x && p.x < x + w && p.y >= y && p.y < y + h;
  }
  [[nodiscard]] bool overlaps(const Rect& o) const {
    return x_span().overlaps(o.x_span()) && y_span().overlaps(o.y_span());
  }
  [[nodiscard]] Rect translated(double dx, double dy) const {
    return {x + dx, y + dy, w, h};
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

}  // namespace cny::geom
