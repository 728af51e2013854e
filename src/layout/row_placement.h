// Row placement model: the y-intervals ("windows") that a design's critical
// CNFETs occupy within a standard-cell row, reduced to the distinct window
// offsets the cell mix produces — the input the yield engine needs to
// evaluate how much CNT sharing the layout actually achieves (Sec 3.1).
//
// Within one row, directional CNTs run along x for their whole length
// (L_CNT = 200 µm >> row length under consideration), so two windows share
// CNTs exactly where their y-intervals overlap. The aligned-active library
// collapses all windows onto one interval; the unmodified library spreads
// them over the template's offset diversity.
#pragma once

#include <vector>

#include "netlist/design.h"

namespace cny::layout {

/// The distinct window offsets (relative y positions) the design's cell mix
/// produces, with abundance weights — the compact input for the analytic
/// union computation. Aligned libraries return a single offset.
struct WeightedOffset {
  double y = 0.0;
  double weight = 0.0;
};
[[nodiscard]] std::vector<WeightedOffset> window_offsets(
    const netlist::Design& design, double w_min);

}  // namespace cny::layout
