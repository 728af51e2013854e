#include "layout/row_placement.h"

#include <cmath>
#include <map>

#include "util/contracts.h"

namespace cny::layout {

std::vector<WeightedOffset> window_offsets(const netlist::Design& design,
                                           double w_min) {
  CNY_EXPECT(w_min > 0.0);
  std::map<double, double> acc;
  for (const auto& ic : design.instances()) {
    const auto* cell = design.library().find(ic.cell_name);
    // A window spans the upsized device width from its region's bottom
    // edge (N devices grow upward, see Library::upsize_transistors), so the
    // bottom edge is the window's offset.
    for (int r : cell->critical_regions(celllib::Polarity::N, w_min)) {
      const double y = cell->regions[static_cast<std::size_t>(r)].rect.y;
      acc[std::round(y * 10.0) / 10.0] += static_cast<double>(ic.count);
    }
  }
  std::vector<WeightedOffset> out;
  out.reserve(acc.size());
  for (const auto& [y, weight] : acc) out.push_back(WeightedOffset{y, weight});
  return out;
}

}  // namespace cny::layout
