// Aligned-active layout transformation (Sec 3.2).
//
// The heuristic from the paper, applied to a whole cell library:
//   1. Estimate W_min (eqs. 2.5 + 3.1) — supplied by the caller.
//   2. Find the *critical* active regions (those containing CNFETs of width
//      <= W_min) and upsize their devices to W_min.
//   3. Re-place the n-type (resp. p-type) critical active regions of every
//      cell so their y-coordinates land on one globally defined grid row.
//   4. Adjust intra-cell geometry: regions forced onto the same row must
//      honour the same-y active-spacing rule, which can widen the cell —
//      the area penalty of Table 2. I/O pin x-positions are preserved.
//
// A two-row variant (`rows_per_polarity = 2`) allows two aligned active
// rows per polarity: it removes (nearly) all area penalty at the cost of a
// 2X reduction in the correlation benefit (Sec 3.3).
#pragma once

#include <string>
#include <vector>

#include "celllib/library.h"

namespace cny::layout {

struct AlignOptions {
  double w_min = 0.0;            ///< critical threshold / upsizing target, nm
  int rows_per_polarity = 1;     ///< 1 = strict aligned-active, 2 = relaxed
  bool upsize_critical = true;   ///< apply step 2 before aligning
  bool align_non_critical = true;///< also snap non-critical regions when free
};

struct CellPenalty {
  std::string cell;
  double old_width = 0.0;
  double new_width = 0.0;
  [[nodiscard]] double penalty() const {
    return old_width > 0.0 ? (new_width - old_width) / old_width : 0.0;
  }
};

struct AlignResult {
  celllib::Library library;            ///< transformed library
  std::vector<CellPenalty> penalties;  ///< every cell, in library order
  double grid_y_n = 0.0;               ///< chosen global n-row (bottom edge)
  double grid_y_p = 0.0;               ///< chosen global p-row (bottom edge)

  [[nodiscard]] std::size_t cells_with_penalty(double eps = 1e-6) const;
  [[nodiscard]] double min_penalty() const;  ///< over penalised cells; 0 if none
  [[nodiscard]] double max_penalty() const;
  [[nodiscard]] double mean_penalty() const; ///< over penalised cells
  /// Total placement-area increase across the library assuming one instance
  /// of each cell (width-weighted).
  [[nodiscard]] double area_increase() const;
};

/// Applies the aligned-active transform to every cell of `lib`.
/// `active_spacing` is the same-y diffusion spacing rule (nm).
[[nodiscard]] AlignResult align_active(const celllib::Library& lib,
                                       const AlignOptions& options,
                                       double active_spacing);

}  // namespace cny::layout
