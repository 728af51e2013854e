// Build-level smoke test: one cheap end-to-end run_flow() call checking the
// structural contract downstream consumers rely on — strategies come back in
// enum order and the summary table renders. Deeper numerical checks live in
// test_flow.cpp.
#include <gtest/gtest.h>

#include <string>

#include "celllib/generator.h"
#include "netlist/design_generator.h"
#include "yield/flow.h"

namespace {

using namespace cny;

const yield::FlowResult& smoke_result() {
  static const yield::FlowResult res = [] {
    const auto lib = celllib::make_nangate45_like();
    const auto design = netlist::make_openrisc_like(lib);
    const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                     cnt::fig21_worst());
    yield::FlowParams params;
    params.mc_samples = 2000;  // smoke budget; accuracy is tested elsewhere
    return yield::run_flow(lib, design, model, params);
  }();
  return res;
}

TEST(FlowSmoke, StrategiesComeBackInEnumOrder) {
  const auto& strategies = smoke_result().strategies;
  ASSERT_EQ(strategies.size(), 4u);
  EXPECT_EQ(strategies[0].strategy, yield::Strategy::Uncorrelated);
  EXPECT_EQ(strategies[1].strategy, yield::Strategy::DirectionalOnly);
  EXPECT_EQ(strategies[2].strategy, yield::Strategy::AlignedOneRow);
  EXPECT_EQ(strategies[3].strategy, yield::Strategy::AlignedTwoRows);
}

TEST(FlowSmoke, InterpolantOptInTracksExactFlow) {
  // run_flow on a yield::warm_model must reproduce the exact flow to
  // interpolation accuracy (W_min within ~1e-3 nm relative), leave the
  // caller's model untouched, and keep the strategy order contract.
  const auto lib = celllib::make_nangate45_like();
  const auto design = netlist::make_openrisc_like(lib);
  const device::FailureModel model(cnt::PitchModel(4.0, 0.9),
                                   cnt::fig21_worst());
  yield::FlowParams params;
  params.mc_samples = 2000;
  const auto exact = smoke_result();
  const auto warm = yield::warm_model(model, params.scenario, 65, 0);
  const yield::WminRequest bracket;
  EXPECT_TRUE(warm.interpolation_covers(bracket.w_lo));
  EXPECT_TRUE(warm.interpolation_covers(bracket.w_hi));
  const auto interp = yield::run_flow(lib, design, warm, params);
  EXPECT_FALSE(model.interpolation_covers(100.0))
      << "warm_model must not install the table on the caller's model";
  ASSERT_EQ(interp.strategies.size(), exact.strategies.size());
  for (std::size_t i = 0; i < interp.strategies.size(); ++i) {
    EXPECT_EQ(interp.strategies[i].strategy, exact.strategies[i].strategy);
    EXPECT_NEAR(interp.strategies[i].w_min / exact.strategies[i].w_min, 1.0,
                1e-3)
        << "strategy " << yield::to_string(interp.strategies[i].strategy);
  }
}

TEST(FlowSmoke, SummaryTableIsNonEmpty) {
  const auto table = smoke_result().summary_table();
  EXPECT_EQ(table.n_rows(), 4u);
  const std::string text = table.to_text();
  EXPECT_FALSE(text.empty());
  // Every strategy label must appear in the rendered table.
  for (auto s : {yield::Strategy::Uncorrelated, yield::Strategy::DirectionalOnly,
                 yield::Strategy::AlignedOneRow, yield::Strategy::AlignedTwoRows}) {
    EXPECT_NE(text.find(yield::to_string(s)), std::string::npos)
        << "missing label: " << yield::to_string(s);
  }
}

}  // namespace
