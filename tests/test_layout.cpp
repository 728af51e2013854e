#include <gtest/gtest.h>

#include <set>

#include "celllib/generator.h"
#include "layout/aligned_active.h"
#include "layout/row_placement.h"
#include "netlist/design_generator.h"
#include "util/contracts.h"

namespace {

using namespace cny::layout;
using cny::celllib::Library;
using cny::celllib::Polarity;

const Library& lib45() {
  static const Library lib = cny::celllib::make_nangate45_like();
  return lib;
}

AlignOptions one_row(double w_min = 100.0) {
  AlignOptions o;
  o.w_min = w_min;
  o.rows_per_polarity = 1;
  return o;
}

TEST(AlignedActive, CriticalRegionsLandOnOneGrid) {
  const auto res = align_active(lib45(), one_row(), 140.0);
  for (const auto& cell : res.library.cells()) {
    for (int r : cell.critical_regions(Polarity::N, 100.0)) {
      EXPECT_DOUBLE_EQ(cell.regions[std::size_t(r)].rect.y, res.grid_y_n)
          << cell.name;
    }
    for (int r : cell.critical_regions(Polarity::P, 100.0)) {
      EXPECT_DOUBLE_EQ(cell.regions[std::size_t(r)].rect.y, res.grid_y_p)
          << cell.name;
    }
  }
}

TEST(AlignedActive, UpsizesCriticalDevices) {
  const double w_min = 100.0;
  const auto res = align_active(lib45(), one_row(w_min), 140.0);
  for (const auto& cell : res.library.cells()) {
    EXPECT_GE(cell.min_transistor_width(), w_min) << cell.name;
  }
}

TEST(AlignedActive, SameRowRegionsHonourSpacing) {
  const double spacing = 140.0;
  const auto res = align_active(lib45(), one_row(), spacing);
  for (const auto& cell : res.library.cells()) {
    const auto crit = cell.critical_regions(Polarity::N, 100.0);
    for (std::size_t i = 0; i < crit.size(); ++i) {
      for (std::size_t j = i + 1; j < crit.size(); ++j) {
        const auto& a = cell.regions[std::size_t(crit[i])].rect;
        const auto& b = cell.regions[std::size_t(crit[j])].rect;
        const double gap = std::max(b.left() - a.right(),
                                    a.left() - b.right());
        EXPECT_GE(gap + 1e-6, spacing) << cell.name;
      }
    }
  }
}

TEST(AlignedActive, PinsArePreserved) {
  const auto res = align_active(lib45(), one_row(), 140.0);
  for (std::size_t i = 0; i < lib45().size(); ++i) {
    const auto& before = lib45().cells()[i];
    const auto& after = res.library.cells()[i];
    ASSERT_EQ(before.pins.size(), after.pins.size());
    for (std::size_t p = 0; p < before.pins.size(); ++p) {
      EXPECT_EQ(before.pins[p].name, after.pins[p].name);
      EXPECT_DOUBLE_EQ(before.pins[p].x, after.pins[p].x);
    }
  }
}

TEST(AlignedActive, CellsNeverShrink) {
  const auto res = align_active(lib45(), one_row(), 140.0);
  for (const auto& p : res.penalties) {
    EXPECT_GE(p.new_width + 1e-9, p.old_width) << p.cell;
  }
}

TEST(AlignedActive, UnfoldedCellsPayNoPenalty) {
  const auto res = align_active(lib45(), one_row(), 140.0);
  for (std::size_t i = 0; i < lib45().size(); ++i) {
    const auto& cell = lib45().cells()[i];
    if (cell.regions_of(Polarity::N).size() == 1 &&
        cell.regions_of(Polarity::P).size() == 1) {
      EXPECT_NEAR(res.penalties[i].penalty(), 0.0, 1e-9) << cell.name;
    }
  }
}

TEST(AlignedActive, PaperTable2NangateRegime) {
  // 4 of 134 cells pay a penalty in the 4-14 % band (paper Table 2).
  const auto res = align_active(lib45(), one_row(103.0), 140.0);
  EXPECT_EQ(res.cells_with_penalty(), 4u);
  EXPECT_GT(res.min_penalty(), 0.03);
  EXPECT_LT(res.max_penalty(), 0.16);
}

TEST(AlignedActive, TwoRowsEliminateNangatePenalty) {
  AlignOptions o = one_row(103.0);
  o.rows_per_polarity = 2;
  const auto res = align_active(lib45(), o, 140.0);
  EXPECT_EQ(res.cells_with_penalty(), 0u);
  EXPECT_DOUBLE_EQ(res.max_penalty(), 0.0);
}

TEST(AlignedActive, TwoRowsNeverWorseThanOne) {
  const auto lib65 = cny::celllib::make_commercial65_like();
  const auto one = align_active(lib65, one_row(107.0), 200.0);
  AlignOptions o = one_row(107.0);
  o.rows_per_polarity = 2;
  const auto two = align_active(lib65, o, 200.0);
  EXPECT_LE(two.cells_with_penalty(), one.cells_with_penalty());
  EXPECT_LE(two.area_increase(), one.area_increase() + 1e-12);
}

TEST(AlignedActive, TransformedLibraryStillValid) {
  const auto res = align_active(lib45(), one_row(), 140.0);
  EXPECT_NO_THROW(res.library.validate());
}

TEST(AlignedActive, PenaltyStatsHelpers) {
  AlignResult r;
  r.penalties = {{"a", 100.0, 100.0}, {"b", 100.0, 110.0},
                 {"c", 200.0, 260.0}};
  EXPECT_EQ(r.cells_with_penalty(), 2u);
  EXPECT_NEAR(r.min_penalty(), 0.10, 1e-12);
  EXPECT_NEAR(r.max_penalty(), 0.30, 1e-12);
  EXPECT_NEAR(r.mean_penalty(), 0.20, 1e-12);
  EXPECT_NEAR(r.area_increase(), 70.0 / 400.0, 1e-12);
}

TEST(AlignedActive, RejectsBadOptions) {
  EXPECT_THROW(align_active(lib45(), AlignOptions{}, 140.0),
               cny::ContractViolation);  // w_min = 0
  AlignOptions o = one_row();
  o.rows_per_polarity = 3;
  EXPECT_THROW(align_active(lib45(), o, 140.0), cny::ContractViolation);
}

TEST(CriticalOffsets, AlignedLibraryHasSingleOffset) {
  const auto res = align_active(lib45(), one_row(103.0), 140.0);
  const auto design = cny::netlist::make_openrisc_like(res.library);
  const auto offsets = window_offsets(design, 103.0);
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_DOUBLE_EQ(offsets[0].y, res.grid_y_n);
}

TEST(CriticalOffsets, UnmodifiedLibraryIsDiverse) {
  const auto design = cny::netlist::make_openrisc_like(lib45());
  const auto offsets = window_offsets(design, 103.0);
  EXPECT_GT(offsets.size(), 5u);
}

// ------------------------------------------------------------- placement

TEST(RowPlacement, WindowOffsetsWeightedByMix) {
  const auto design = cny::netlist::make_openrisc_like(lib45());
  const auto offsets = window_offsets(design, 103.0);
  ASSERT_GT(offsets.size(), 3u);
  double total = 0.0;
  for (const auto& o : offsets) {
    EXPECT_GE(o.y, 0.0);
    EXPECT_GT(o.weight, 0.0);
    total += o.weight;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
