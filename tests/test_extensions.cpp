// Tests for the extension modules: finite CNT length correlation, the
// surviving-m-CNT short model and the removal selectivity tradeoff.
#include <gtest/gtest.h>

#include <cmath>

#include "cnt/removal_tradeoff.h"
#include "device/short_model.h"
#include "stats/accumulator.h"
#include "util/contracts.h"
#include "yield/length_variation.h"

namespace {

using namespace cny;

// ----------------------------------------------------- length variation

std::vector<double> spaced_positions(int n, double pitch) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(i * pitch);
  return out;
}

TEST(LengthVariation, CoverMeasureFixedLengthByHand) {
  // Two devices 100 apart, tubes of length 150: union of (x-150, x] =
  // (-150, 0] ∪ (-50, 100] -> measure 250.
  yield::LengthModel model{150.0, 0.0};
  EXPECT_NEAR(model.mean_cover_measure({0.0, 100.0}), 250.0, 1e-9);
  // Far apart: disjoint -> 2L.
  EXPECT_NEAR(model.mean_cover_measure({0.0, 1000.0}), 300.0, 1e-9);
  // Same position: L.
  EXPECT_NEAR(model.mean_cover_measure({5.0, 5.0}), 150.0, 1e-9);
}

TEST(LengthVariation, SingleDeviceMatchesDeviceFailure) {
  // One device: p_RF = exp(-ν W L) = exp(-λ_s W) regardless of L.
  const double lambda_s = 0.117, w = 145.0;
  for (double l : {1.0e3, 200.0e3}) {
    const double p = yield::p_rf_finite_length(lambda_s, w, {0.0},
                                               yield::LengthModel{l, 0.0});
    EXPECT_NEAR(p / std::exp(-lambda_s * w), 1.0, 1e-9) << "L=" << l;
  }
}

TEST(LengthVariation, LongTubesLeaveResidualIndependence) {
  // Devices spanning `span` with tubes of length L >> span do NOT collapse
  // to a single failure opportunity: random tube boundaries cross the row
  // everywhere, leaving each device a private exposure of measure ~d/L per
  // neighbour gap. First-order expansion of the exact union:
  //   p_RF ≈ p_1 · (1 + λ_s W · span / L).
  // This quantifies how optimistic the paper's "perfect correlation within
  // L_CNT" simplification is (Sec 3.1); see DESIGN.md.
  const double lambda_s = 0.117, w = 145.0;
  const auto pos = spaced_positions(18, 555.0);  // 1.8 FETs/µm, span 9.4 µm
  const double span = pos.back() - pos.front();
  const double l_cnt = 200.0e3;
  const double p = yield::p_rf_finite_length(lambda_s, w, pos,
                                             yield::LengthModel{l_cnt, 0.0});
  const double predicted =
      std::exp(-lambda_s * w) * (1.0 + lambda_s * w * span / l_cnt);
  EXPECT_NEAR(p / predicted, 1.0, 0.02);
}

TEST(LengthVariation, ShortTubesApproachIndependence) {
  // Tubes much shorter than the device spacing: no sharing.
  const double lambda_s = 0.117, w = 145.0;
  const auto pos = spaced_positions(10, 555.0);
  const double p = yield::p_rf_finite_length(lambda_s, w, pos,
                                             yield::LengthModel{50.0, 0.0});
  const double p1 = std::exp(-lambda_s * w);
  EXPECT_NEAR(p / (1.0 - std::pow(1.0 - p1, 10.0)), 1.0, 1e-6);
}

TEST(LengthVariation, SharingMonotoneInLength) {
  const double lambda_s = 0.117, w = 145.0;
  const auto pos = spaced_positions(12, 555.0);
  double prev = 0.0;
  for (double l : {100.0, 1000.0, 5000.0, 50000.0}) {
    const double share = yield::effective_sharing(
        lambda_s, w, pos, yield::LengthModel{l, 0.0});
    EXPECT_GT(share, prev) << "L=" << l;
    prev = share;
  }
  EXPECT_LE(prev, 12.0 + 1e-6);
}

TEST(LengthVariation, McCrossCheckAtInflatedProbability) {
  // Small device width -> empty windows common -> direct MC resolves p_RF.
  const double lambda_s = 0.117, w = 30.0;
  const auto pos = spaced_positions(6, 400.0);
  const yield::LengthModel length{800.0, 0.0};
  const double analytic = yield::p_rf_finite_length(lambda_s, w, pos, length);
  rng::Xoshiro256 rng(301);
  const auto mc =
      yield::p_rf_finite_length_mc(lambda_s, w, pos, length, 60000, rng);
  EXPECT_NEAR(mc.estimate / analytic, 1.0, 0.08)
      << "analytic=" << analytic << " mc=" << mc.estimate;
}

TEST(LengthVariation, LognormalLengthsReduceSharing) {
  // At fixed mean length, variability creates short tubes that break rows
  // into more independent pieces -> higher p_RF than the fixed-length law
  // once lengths are comparable to the span.
  const double lambda_s = 0.117, w = 145.0;
  const auto pos = spaced_positions(12, 555.0);
  const double fixed = yield::p_rf_finite_length(
      lambda_s, w, pos, yield::LengthModel{7000.0, 0.0});
  const double variable = yield::p_rf_finite_length(
      lambda_s, w, pos, yield::LengthModel{7000.0, 0.5});
  EXPECT_GT(variable, fixed);
}

TEST(LengthVariation, SampleRespectsLaw) {
  rng::Xoshiro256 rng(302);
  const yield::LengthModel fixed{123.0, 0.0};
  EXPECT_DOUBLE_EQ(fixed.sample(rng), 123.0);
  const yield::LengthModel ln{200.0, 0.3};
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(ln.sample(rng));
  EXPECT_NEAR(acc.mean(), 200.0, 2.0);
  EXPECT_NEAR(acc.stddev(), 60.0, 3.0);
}

// ------------------------------------------------------------ short model

device::ShortModel make_short_model(double p_rm) {
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_m = p_rm;
  return device::ShortModel(cnt::PitchModel(4.0, 0.9), process);
}

TEST(ShortModel, PerfectRemovalMeansNoShorts) {
  const auto model = make_short_model(1.0);
  EXPECT_DOUBLE_EQ(model.p_short_device(155.0), 0.0);
  EXPECT_DOUBLE_EQ(model.mean_shorts(155.0), 0.0);
  EXPECT_DOUBLE_EQ(model.chip_yield_shorts(155.0, 1e8, 0.01), 1.0);
}

TEST(ShortModel, MeanShortsLinearInWidth) {
  const auto model = make_short_model(0.999);
  // p_short = 0.33 * 0.001; mean shorts = p_short * W / 4.
  EXPECT_NEAR(model.mean_shorts(160.0), 0.33 * 0.001 * 40.0, 1e-12);
  EXPECT_NEAR(model.mean_shorts(320.0) / model.mean_shorts(160.0), 2.0,
              1e-9);
}

TEST(ShortModel, DevicePShortIncreasingInWidthAndPrmComplement) {
  const auto model = make_short_model(0.999);
  EXPECT_LT(model.p_short_device(80.0), model.p_short_device(160.0));
  const auto worse = make_short_model(0.99);
  EXPECT_LT(model.p_short_device(160.0), worse.p_short_device(160.0));
}

TEST(ShortModel, PoissonClosedFormAgreement) {
  // Poisson pitch: P(>=1 short) = 1 - exp(-λ W p_short).
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_m = 0.999;
  const device::ShortModel model(cnt::PitchModel(4.0, 1.0), process);
  const double w = 155.0;
  const double expect = -std::expm1(-(w / 4.0) * 0.33 * 0.001);
  EXPECT_NEAR(model.p_short_device(w) / expect, 1.0, 1e-4);
}

TEST(ShortModel, RequiredPrmIsHigh) {
  // Paper remark: "p_Rm greater than 99.99 % is required" — with 100M
  // devices, noise failure odds 1 %, and 90 % yield, the solver lands in
  // the 99.9+ % regime.
  const double p_rm = device::ShortModel::required_p_rm(
      cnt::PitchModel(4.0, 0.9), 0.33, 155.0, 1e8, 0.01, 0.90);
  EXPECT_GT(p_rm, 0.999);
  EXPECT_LT(p_rm, 1.0);
  // And it satisfies the target.
  cnt::ProcessParams process;
  process.p_metallic = 0.33;
  process.p_remove_m = p_rm;
  const device::ShortModel model(cnt::PitchModel(4.0, 0.9), process);
  EXPECT_NEAR(model.chip_yield_shorts(155.0, 1e8, 0.01), 0.90, 1e-4);
}

TEST(ShortModel, RequiredPrmMonotoneInChipSize) {
  const auto solve = [](double m) {
    return device::ShortModel::required_p_rm(cnt::PitchModel(4.0, 0.9), 0.33,
                                             155.0, m, 0.01, 0.90);
  };
  EXPECT_LT(solve(1e6), solve(1e8));
}

// ------------------------------------------------------ removal tradeoff

TEST(RemovalTradeoff, NormalCdfQuantileRoundTrip) {
  for (double p : {0.01, 0.3, 0.5, 0.9, 0.9999}) {
    EXPECT_NEAR(cnt::normal_cdf(cnt::normal_quantile(p)), p, 1e-10)
        << "p=" << p;
  }
  EXPECT_NEAR(cnt::normal_cdf(0.0), 0.5, 1e-15);
}

TEST(RemovalTradeoff, FrontierIsMonotone) {
  const cnt::RemovalTradeoff process(3.0);
  const auto frontier = process.frontier(0.90, 0.9999, 15);
  ASSERT_EQ(frontier.size(), 15u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].p_rm, frontier[i - 1].p_rm);
    EXPECT_GT(frontier[i].p_rs, frontier[i - 1].p_rs);
  }
}

TEST(RemovalTradeoff, BetterSelectivityMeansLessCollateral) {
  const cnt::RemovalTradeoff weak(2.0);
  const cnt::RemovalTradeoff strong(4.0);
  EXPECT_GT(weak.p_rs_at(0.9999), strong.p_rs_at(0.9999));
}

TEST(RemovalTradeoff, PaperWorkingPointSelectivity) {
  // p_Rm = 99.99 % with p_Rs = 30 % needs s = Φ^{-1}(0.9999) - Φ^{-1}(0.30)
  // ≈ 3.72 + 0.52 ≈ 4.24 sigma.
  const double s = cnt::RemovalTradeoff::required_selectivity(0.9999, 0.30);
  EXPECT_NEAR(s, 4.24, 0.05);
  const cnt::RemovalTradeoff process(s);
  EXPECT_NEAR(process.p_rs_at(0.9999), 0.30, 1e-6);
}

TEST(RemovalTradeoff, ProcessAtProducesValidParams) {
  const cnt::RemovalTradeoff process(3.5);
  const auto params = process.process_at(0.9999);
  EXPECT_DOUBLE_EQ(params.p_remove_m, 0.9999);
  EXPECT_GT(params.p_fail(), params.p_metallic);
  EXPECT_NO_THROW(params.validate());
}

}  // namespace
