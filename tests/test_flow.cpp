// Tests for the YieldFlow entry point.
#include <gtest/gtest.h>

#include "celllib/generator.h"
#include "netlist/design_generator.h"
#include "util/contracts.h"
#include "yield/flow.h"

namespace {

using namespace cny;

// ------------------------------------------------------------------ flow

struct FlowFixture : public ::testing::Test {
  static const yield::FlowResult& result() {
    static const yield::FlowResult res = [] {
      const auto& lib = library();
      const auto design = netlist::make_openrisc_like(lib);
      const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                       cnt::fig21_worst());
      yield::FlowParams params;
      params.mc_samples = 8000;
      return yield::run_flow(lib, design, model, params);
    }();
    return res;
  }
  static const celllib::Library& library() {
    static const celllib::Library lib = celllib::make_nangate45_like();
    return lib;
  }
};

TEST_F(FlowFixture, AllFourStrategiesPresent) {
  EXPECT_EQ(result().strategies.size(), 4u);
  EXPECT_NO_THROW(result().get(yield::Strategy::Uncorrelated));
  EXPECT_NO_THROW(result().get(yield::Strategy::DirectionalOnly));
  EXPECT_NO_THROW(result().get(yield::Strategy::AlignedOneRow));
  EXPECT_NO_THROW(result().get(yield::Strategy::AlignedTwoRows));
}

TEST_F(FlowFixture, StrategyOrderingMatchesPaper) {
  const auto& unc = result().get(yield::Strategy::Uncorrelated);
  const auto& dir = result().get(yield::Strategy::DirectionalOnly);
  const auto& one = result().get(yield::Strategy::AlignedOneRow);
  const auto& two = result().get(yield::Strategy::AlignedTwoRows);
  // W_min strictly improves with correlation credit.
  EXPECT_GT(unc.w_min, dir.w_min);
  EXPECT_GT(dir.w_min, one.w_min);
  EXPECT_GT(two.w_min, one.w_min);   // two rows pay a small W_min premium
  EXPECT_LT(two.w_min, dir.w_min);
  // Power penalty follows W_min.
  EXPECT_GT(unc.power_penalty, one.power_penalty);
  // Area cost only for the one-row aligned flow.
  EXPECT_EQ(unc.cells_widened, 0u);
  EXPECT_GT(one.cells_widened, 0u);
  EXPECT_EQ(two.cells_widened, 0u);
}

TEST_F(FlowFixture, RelaxationsMatchRowModel) {
  EXPECT_NEAR(result().m_r_min, 360.0, 1e-9);
  EXPECT_DOUBLE_EQ(result().get(yield::Strategy::AlignedOneRow).relaxation,
                   360.0);
  EXPECT_DOUBLE_EQ(result().get(yield::Strategy::AlignedTwoRows).relaxation,
                   180.0);
  const double dir =
      result().get(yield::Strategy::DirectionalOnly).relaxation;
  EXPECT_GT(dir, 10.0);
  EXPECT_LT(dir, 60.0);  // paper: 26.5X
}

TEST_F(FlowFixture, SummaryTableRenders) {
  const auto table = result().summary_table();
  EXPECT_EQ(table.n_rows(), 4u);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("aligned-active (1 row)"), std::string::npos);
  EXPECT_NE(text.find("360X"), std::string::npos);
}

TEST(Flow, RejectsMismatchedDesign) {
  const auto lib_a = celllib::make_nangate45_like();
  const auto lib_b = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib_a);
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  EXPECT_THROW(yield::run_flow(lib_b, design, model, {}),
               cny::ContractViolation);
}

}  // namespace
