#include "layout/aligned_active.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/contracts.h"

namespace cny::layout {

using celllib::ActiveRegion;
using celllib::Cell;
using celllib::Library;
using celllib::Polarity;

namespace {

/// Chooses the global grid row for a polarity: the most common critical
/// bottom edge across the library (minimises how many regions must move).
/// When no region of the polarity is critical (e.g. every p-device is wider
/// than W_min), falls back to the most common bottom edge overall so the
/// optional non-critical alignment still has a meaningful grid.
double choose_grid_row(const Library& lib, Polarity pol, double w_min) {
  std::map<double, int> votes;
  const auto tally = [&votes](const Cell& c, int r) {
    // Quantise to 0.1 nm so float noise does not split votes.
    const double key =
        std::round(c.regions[static_cast<std::size_t>(r)].rect.y * 10.0) /
        10.0;
    votes[key] += 1;
  };
  for (const auto& c : lib.cells()) {
    for (int r : c.critical_regions(pol, w_min)) tally(c, r);
  }
  if (votes.empty()) {
    for (const auto& c : lib.cells()) {
      for (int r : c.regions_of(pol)) tally(c, r);
    }
  }
  if (votes.empty()) return 0.0;
  return std::max_element(votes.begin(), votes.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

/// Re-packs regions assigned to the same row so that x-overlapping regions
/// are pushed apart to `spacing`. Regions keep their left-to-right order.
/// Returns the rightmost extent after packing.
double pack_row(std::vector<ActiveRegion*>& row, double spacing) {
  std::sort(row.begin(), row.end(), [](const auto* a, const auto* b) {
    return a->rect.x < b->rect.x;
  });
  double cursor = -1e300;
  double extent = 0.0;
  for (ActiveRegion* r : row) {
    const double x = std::max(r->rect.x, cursor);
    r->rect.x = x;
    cursor = x + r->rect.w + spacing;
    extent = std::max(extent, x + r->rect.w);
  }
  return extent;
}

}  // namespace

std::size_t AlignResult::cells_with_penalty(double eps) const {
  std::size_t n = 0;
  for (const auto& p : penalties) {
    if (p.penalty() > eps) ++n;
  }
  return n;
}

double AlignResult::min_penalty() const {
  double m = 0.0;
  bool any = false;
  for (const auto& p : penalties) {
    if (p.penalty() > 1e-6) {
      m = any ? std::min(m, p.penalty()) : p.penalty();
      any = true;
    }
  }
  return m;
}

double AlignResult::max_penalty() const {
  double m = 0.0;
  for (const auto& p : penalties) m = std::max(m, p.penalty());
  return m;
}

double AlignResult::mean_penalty() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : penalties) {
    if (p.penalty() > 1e-6) {
      sum += p.penalty();
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double AlignResult::area_increase() const {
  double old_w = 0.0, new_w = 0.0;
  for (const auto& p : penalties) {
    old_w += p.old_width;
    new_w += p.new_width;
  }
  return old_w > 0.0 ? (new_w - old_w) / old_w : 0.0;
}

AlignResult align_active(const Library& lib, const AlignOptions& options,
                         double active_spacing) {
  CNY_EXPECT(options.w_min > 0.0);
  CNY_EXPECT(options.rows_per_polarity == 1 || options.rows_per_polarity == 2);
  CNY_EXPECT(active_spacing >= 0.0);

  AlignResult result;
  result.library = lib;  // transformed in place below
  result.grid_y_n = choose_grid_row(lib, Polarity::N, options.w_min);
  result.grid_y_p = choose_grid_row(lib, Polarity::P, options.w_min);

  // Step 2: upsize critical devices to W_min (region heights follow).
  if (options.upsize_critical) {
    result.library.upsize_transistors([&](double w) {
      return w < options.w_min ? options.w_min : w;
    });
  }

  for (auto& cell : result.library.cells()) {
    const double old_width = cell.width;
    // Right-hand routing margin of the original cell: preserved after any
    // widening so pin access stays legal.
    double orig_extent = 0.0;
    for (const auto& r : cell.regions) {
      orig_extent = std::max(orig_extent, r.rect.right());
    }
    const double right_margin = std::max(0.0, old_width - orig_extent);

    for (Polarity pol : {Polarity::N, Polarity::P}) {
      const double grid_y =
          pol == Polarity::N ? result.grid_y_n : result.grid_y_p;
      const auto critical = cell.critical_regions(pol, options.w_min);
      if (critical.empty()) continue;

      // Row assignment. One row: every critical region lands on grid_y.
      // Two rows: alternate critical regions between grid_y and a second
      // row offset just above it (left-to-right), which resolves the
      // pairwise x-conflicts of folded templates.
      std::vector<std::vector<ActiveRegion*>> rows(
          static_cast<std::size_t>(options.rows_per_polarity));
      std::vector<int> order(critical.begin(), critical.end());
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return cell.regions[static_cast<std::size_t>(a)].rect.x <
               cell.regions[static_cast<std::size_t>(b)].rect.x;
      });
      double row_height = 0.0;
      for (int r : order) {
        row_height = std::max(
            row_height, cell.regions[static_cast<std::size_t>(r)].rect.h);
      }
      const double second_row_gap = 0.3 * row_height + 40.0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        auto& region = cell.regions[static_cast<std::size_t>(order[i])];
        const std::size_t row_idx = i % rows.size();
        double y = grid_y;
        if (row_idx == 1) {
          y = pol == Polarity::N ? grid_y + row_height + second_row_gap
                                 : grid_y - row_height - second_row_gap;
        }
        region.rect.y = y;
        rows[row_idx].push_back(&region);
      }

      // Step 3/4: same-row regions must honour the same-y spacing rule.
      double extent = 0.0;
      for (auto& row : rows) {
        extent = std::max(extent, pack_row(row, active_spacing));
      }

      // Non-critical regions of the same polarity optionally snap to the
      // grid when that does not create a same-row conflict (Sec 3.2 note).
      if (options.align_non_critical) {
        for (int r : cell.regions_of(pol)) {
          auto& region = cell.regions[static_cast<std::size_t>(r)];
          if (std::find(critical.begin(), critical.end(), r) !=
              critical.end()) {
            continue;
          }
          bool conflict = false;
          for (const auto& row : rows) {
            for (const ActiveRegion* other : row) {
              if (other->rect.x_span().overlaps(
                      geom::Interval{region.rect.x - active_spacing,
                                     region.rect.right() + active_spacing})) {
                conflict = true;
                break;
              }
            }
            if (conflict) break;
          }
          if (!conflict) region.rect.y = grid_y;
        }
      }

      // Cell widening if the packed critical rows spill past the old box:
      // keep the original right routing margin beyond the rightmost region.
      double all_extent = extent;
      for (const auto& r : cell.regions) {
        all_extent = std::max(all_extent, r.rect.right());
      }
      cell.width = std::max(cell.width, all_extent + right_margin);
    }

    result.penalties.push_back(
        CellPenalty{cell.name, old_width, cell.width});
  }

  result.library.validate();
  return result;
}

}  // namespace cny::layout
