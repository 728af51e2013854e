#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "cnt/count_distribution.h"
#include "device/failure_model.h"
#include "numeric/interp.h"
#include "obs/metrics.h"
#include "rng/engine.h"
#include "util/contracts.h"
#include "yield/wmin_solver.h"

namespace {

using namespace cny::device;
using cny::cnt::PitchModel;
using cny::cnt::ProcessParams;

FailureModel poisson_model() {
  return FailureModel(PitchModel(4.0, 1.0), cny::cnt::fig21_worst());
}

FailureModel paper_model() {
  return FailureModel(PitchModel(4.0, 0.9), cny::cnt::fig21_worst());
}

TEST(FailureModel, PoissonClosedFormAgreement) {
  const auto model = poisson_model();
  for (double w : {20.0, 60.0, 103.0, 155.0}) {
    EXPECT_NEAR(model.p_f(w) / model.p_f_poisson_closed_form(w), 1.0, 1e-5)
        << "w=" << w;
  }
}

TEST(FailureModel, ClosedFormRejectedForNonPoisson) {
  const auto model = paper_model();
  EXPECT_THROW(model.p_f_poisson_closed_form(100.0), cny::ContractViolation);
}

TEST(FailureModel, StrictlyDecreasingInWidth) {
  const auto model = paper_model();
  double prev = 1.1;
  for (double w = 20.0; w <= 180.0; w += 8.0) {
    const double pf = model.p_f(w);
    EXPECT_LT(pf, prev) << "w=" << w;
    prev = pf;
  }
}

TEST(FailureModel, OrderingAcrossProcessConditions) {
  // Worse processing (higher p_f per CNT) → higher p_F at every width.
  const PitchModel pitch(4.0, 0.9);
  const FailureModel worst(pitch, cny::cnt::fig21_worst());
  const FailureModel mid(pitch, cny::cnt::fig21_mid());
  const FailureModel ideal(pitch, cny::cnt::fig21_ideal());
  for (double w : {40.0, 100.0, 160.0}) {
    EXPECT_GT(worst.p_f(w), mid.p_f(w));
    EXPECT_GT(mid.p_f(w), ideal.p_f(w));
  }
}

TEST(FailureModel, IdealProcessFailsOnlyByDensity) {
  // With p_f = 0, failure requires zero CNTs in the window: p_F = P(N=0).
  const FailureModel ideal(PitchModel(4.0, 1.0), cny::cnt::fig21_ideal());
  for (double w : {8.0, 20.0, 40.0}) {
    EXPECT_NEAR(ideal.p_f(w) / std::exp(-w / 4.0), 1.0, 1e-5);
  }
}

TEST(FailureModel, ZeroWidthAlwaysFails) {
  EXPECT_DOUBLE_EQ(paper_model().p_f(0.0), 1.0);
}

TEST(FailureModel, Fig21AnchorCalibration) {
  // The calibrated model must place the paper's Fig 2.1 anchors within
  // engineering tolerance: p_F(155) within [1e-9, 1e-8] (paper 3e-9), and
  // the 350X relaxation near W ≈ 103 within ~10 nm.
  const auto model = paper_model();
  const double p155 = model.p_f(155.0);
  EXPECT_GT(p155, 1.0e-9);
  EXPECT_LT(p155, 1.0e-8);
  const double p103 = model.p_f(103.0);
  EXPECT_GT(p103 / p155, 200.0);
  EXPECT_LT(p103 / p155, 900.0);
}

TEST(FailureModel, MonteCarloMatchesAnalytic) {
  // Inflated-probability regime where direct MC resolves p_F.
  const auto model = paper_model();
  cny::rng::Xoshiro256 rng(91);
  const double w = 24.0;  // p_F ~ 1e-2
  const auto ci = model.p_f_monte_carlo(w, 40000, rng);
  const double analytic = model.p_f(w);
  EXPECT_TRUE(ci.contains(analytic))
      << "analytic=" << analytic << " ci=[" << ci.lo << "," << ci.hi << "]";
}

TEST(FailureModel, MeanCount) {
  EXPECT_DOUBLE_EQ(paper_model().mean_count(100.0), 25.0);
}

TEST(FailureModel, CacheReturnsIdenticalValues) {
  const auto model = paper_model();
  const double a = model.p_f(123.0);
  const double b = model.p_f(123.0);
  EXPECT_EQ(a, b);
}

TEST(FailureModel, ExactPathMatchesFullPmfPgf) {
  // p_f_exact now runs the truncated kernel; it must agree with the
  // full-PMF reference evaluation to ≤ 1e-12 relative on the Fig 2.1 grid.
  const cny::cnt::PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_worst();
  const FailureModel model(pitch, proc);
  for (double w = 20.0; w <= 180.0; w += 16.0) {
    const cny::cnt::CountDistribution full(pitch, w);
    const double reference = full.pgf(proc.p_fail());
    EXPECT_LE(std::fabs(model.p_f_exact(w) - reference) / reference, 1e-12)
        << "w=" << w;
  }
}

TEST(FailureModel, MonteCarloMarginMatchesAnalytic) {
  // A stationarity margin above/below the window must not change what the
  // estimator converges to (the equilibrium first-gap draw already makes
  // the band stationary; the margin makes that independent of the draw).
  const auto model = paper_model();
  cny::rng::Xoshiro256 rng(92);
  const double w = 24.0;  // p_F ~ 1e-2
  const auto ci = model.p_f_monte_carlo(w, 40000, rng, /*margin=*/8.0);
  const double analytic = model.p_f(w);
  EXPECT_TRUE(ci.contains(analytic))
      << "analytic=" << analytic << " ci=[" << ci.lo << "," << ci.hi << "]";
  EXPECT_THROW(model.p_f_monte_carlo(w, 100, rng, -1.0),
               cny::ContractViolation);
}

TEST(FailureModel, LockLightReadPathSurvivesThreadHammer) {
  // Concurrent p_f readers race enable_interpolation installs of several
  // ranges. Every answer must be finite, in (0, 1], and consistent with
  // the exact value to interpolation accuracy; afterwards the exact path
  // must still serve bit-identical memoised values.
  const auto model = paper_model();
  const double exact_ref[] = {model.p_f_exact(20.0), model.p_f_exact(60.0),
                              model.p_f_exact(100.0), model.p_f_exact(140.0),
                              model.p_f_exact(180.0)};
  const double widths[] = {20.0, 60.0, 100.0, 140.0, 180.0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        if (t >= 6 && i % 50 == 0) {
          // Builders: install/replace tables over alternating ranges.
          const double lo = (i % 100 == 0) ? 10.0 : 15.0;
          model.enable_interpolation(lo, 200.0, 33);
        }
        const std::size_t which = static_cast<std::size_t>(i) % 5;
        const double pf = model.p_f(widths[which]);
        // Interpolation error on log p_F is well under 1% over this range;
        // anything outside is a torn read or a broken snapshot.
        if (!std::isfinite(pf) || pf <= 0.0 || pf > 1.0 ||
            std::fabs(std::log(pf) - std::log(exact_ref[which])) > 0.01) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(model.p_f_exact(widths[i]), exact_ref[i]);
  }
}

// ------------------------------------------------ lazily filled interpolant

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Widths over the solver bracket, every knot among them, in shuffled order.
std::vector<double> shuffled_widths(const std::vector<double>& knots,
                                    std::size_t n, std::uint64_t seed) {
  std::vector<double> ws = knots;
  const double lo = knots.front(), hi = knots.back();
  for (std::size_t i = 0; i < n; ++i) {
    ws.push_back(lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(n - 1));
  }
  std::shuffle(ws.begin(), ws.end(), std::mt19937_64(seed));
  return ws;
}

/// The eager table over the same exact knots the lazy one fills.
cny::numeric::MonotoneCubic eager_table(const FailureModel& model) {
  std::vector<double> xs = model.interpolation_knots();
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::log(model.p_f_exact(x)));
  return {std::move(xs), std::move(ys)};
}

TEST(LazyInterpolant, MatchesEagerTableAtEveryCampaignCorner) {
  // The campaign corners (pitch CV x p_m at μ_S = 4 nm, p_Rs = 0.30): a
  // lazily filled table reads exactly what a table built from all its
  // knots up front reads, and no read there needs the fallback.
  auto& fallbacks =
      cny::obs::Registry::global().counter("device.interp_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.value();
  const cny::yield::WminRequest bracket;
  for (const double cv : {0.80, 0.85, 0.90, 0.95}) {
    for (const double p_m : {0.30, 0.33, 0.36}) {
      ProcessParams process;
      process.p_metallic = p_m;
      process.p_remove_s = 0.30;
      const FailureModel model(PitchModel(4.0, cv), process);
      model.enable_interpolation(bracket.w_lo, bracket.w_hi, 65, 1);
      const auto widths =
          shuffled_widths(model.interpolation_knots(), 200, 7);
      std::vector<double> lazy;
      for (const double w : widths) lazy.push_back(model.p_f(w));
      const auto eager = eager_table(model);
      for (std::size_t i = 0; i < widths.size(); ++i) {
        ASSERT_EQ(bits(lazy[i]), bits(std::exp(eager(widths[i]))))
            << "cv=" << cv << " p_m=" << p_m << " W=" << widths[i];
      }
    }
  }
  EXPECT_EQ(fallbacks.value(), fallbacks_before);
}

TEST(LazyInterpolant, RacingFirstReadsPublishIdenticalBytes) {
  // Four threads make the first reads of the same segments at once, half
  // of them through a copy taken before any knot was filled (copies share
  // the table's knot slots). Every answer, and every later read of either
  // model, has the bits of a serially filled table.
  const cny::yield::WminRequest bracket;
  const FailureModel reference = paper_model();
  reference.enable_interpolation(bracket.w_lo, bracket.w_hi, 65, 1);
  const FailureModel model = paper_model();
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, 65, 1);
  const FailureModel copy(model);

  std::vector<double> widths;
  for (double w = 60.0; w <= 220.0; w += 2.5) widths.push_back(w);
  std::vector<double> expected;
  for (const double w : widths) expected.push_back(reference.p_f(w));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const FailureModel& m = (t % 2 == 0) ? model : copy;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      if (t < 2) {
        for (const double w : widths) seen[t].push_back(m.p_f(w));
      } else {
        seen[t] = m.p_f_batch(widths);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), widths.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      EXPECT_EQ(bits(seen[t][i]), bits(expected[i]))
          << "thread " << t << " W=" << widths[i];
    }
  }
  for (std::size_t i = 0; i < widths.size(); ++i) {
    EXPECT_EQ(bits(model.p_f(widths[i])), bits(expected[i]));
    EXPECT_EQ(bits(copy.p_f(widths[i])), bits(expected[i]));
  }
}

}  // namespace
