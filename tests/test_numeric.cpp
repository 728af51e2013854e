#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "numeric/integrate.h"
#include "numeric/interp.h"
#include "numeric/roots.h"
#include "numeric/special.h"
#include "util/contracts.h"

namespace {

using namespace cny::numeric;

// ---------------------------------------------------------------- special

TEST(Special, GammaPAtKnownPoints) {
  // P(1, x) = 1 - e^-x (exponential CDF).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(Special, GammaPPlusQIsOne) {
  for (double a : {0.3, 1.0, 2.5, 17.0, 250.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 30.0, 400.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(Special, GammaQDeepTailHasRelativePrecision) {
  // Q(1, 50) = e^-50 ~ 1.9e-22; demand relative accuracy.
  EXPECT_NEAR(gamma_q(1.0, 50.0) / std::exp(-50.0), 1.0, 1e-10);
}

TEST(Special, GammaCdfPdfConsistency) {
  // Numeric derivative of the CDF matches the PDF.
  const double k = 2.7, theta = 1.3;
  for (double x : {0.5, 1.0, 3.0, 8.0}) {
    const double h = 1e-6;
    const double d =
        (gamma_cdf(x + h, k, theta) - gamma_cdf(x - h, k, theta)) / (2 * h);
    EXPECT_NEAR(d, gamma_pdf(x, k, theta), 1e-6);
  }
}

TEST(Special, GammaPdfEdgeCases) {
  EXPECT_DOUBLE_EQ(gamma_pdf(-1.0, 2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_pdf(0.0, 2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_pdf(0.0, 1.0, 2.0), 0.5);
  EXPECT_TRUE(std::isinf(gamma_pdf(0.0, 0.5, 1.0)));
}

TEST(Special, PoissonCdfMatchesDirectSum) {
  const double lambda = 7.3;
  double acc = 0.0;
  for (long n = 0; n <= 20; ++n) {
    acc += poisson_pmf(n, lambda);
    EXPECT_NEAR(poisson_cdf(n, lambda), acc, 1e-12) << "n=" << n;
  }
}

TEST(Special, PoissonZeroLambda) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(poisson_cdf(5, 0.0), 1.0);
}

TEST(Special, LogAddExp) {
  EXPECT_NEAR(log_add_exp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-14);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_add_exp(-inf, 1.5), 1.5);
  // No overflow for large magnitudes.
  EXPECT_NEAR(log_add_exp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-10);
}

TEST(Special, LogSumExpMatchesDirect) {
  EXPECT_NEAR(log_sum_exp({std::log(1.0), std::log(2.0), std::log(3.0)}),
              std::log(6.0), 1e-13);
  EXPECT_TRUE(std::isinf(log_sum_exp({})));
}

TEST(Special, Log1mExpBothBranches) {
  EXPECT_NEAR(log1m_exp(-0.1), std::log(1.0 - std::exp(-0.1)), 1e-13);
  EXPECT_NEAR(log1m_exp(-10.0), std::log(1.0 - std::exp(-10.0)), 1e-13);
}

TEST(Special, DomainViolationsThrow) {
  EXPECT_THROW(gamma_p(0.0, 1.0), cny::ContractViolation);
  EXPECT_THROW(gamma_p(1.0, -1.0), cny::ContractViolation);
  EXPECT_THROW(log1m_exp(0.5), cny::ContractViolation);
}

// ------------------------------------------------------------------ roots

TEST(Roots, BrentFindsCubicRoot) {
  const auto res = brent([](double x) { return x * x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x, std::cbrt(2.0), 1e-9);
}

TEST(Roots, BrentAcceptsRootAtEndpoint) {
  const auto res = brent([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.x, 0.0);
}

TEST(Roots, BrentRejectsNonBracketing) {
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               cny::ContractViolation);
}

TEST(Roots, InvertDecreasingExponential) {
  const auto f = [](double x) { return std::exp(-x); };
  const auto res = invert_decreasing(f, 0.1, 0.0, 10.0);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x, -std::log(0.1), 1e-8);
}

TEST(Roots, InvertDecreasingRejectsOutOfRangeTarget) {
  const auto f = [](double x) { return std::exp(-x); };
  EXPECT_THROW(invert_decreasing(f, 2.0, 0.0, 10.0), cny::ContractViolation);
}

// -------------------------------------------------------------- integrate

TEST(Integrate, AdaptivePolynomialExact) {
  const auto f = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(integrate_adaptive(f, 0.0, 2.0), 8.0, 1e-10);
}

TEST(Integrate, AdaptiveHandlesReversedLimits) {
  const auto f = [](double x) { return x; };
  EXPECT_NEAR(integrate_adaptive(f, 2.0, 0.0), -2.0, 1e-10);
}

TEST(Integrate, GaussLegendreSmoothFunction) {
  EXPECT_NEAR(integrate_gl([](double x) { return std::sin(x); }, 0.0,
                           std::numbers::pi, 4),
              2.0, 1e-12);
}

TEST(Integrate, GaussLegendreGaussian) {
  // ∫_{-a}^{a} e^{-x²/2} dx = sqrt(2π)·erf(a/√2); compare against the
  // truncated closed form so tail truncation is not mistaken for
  // quadrature error.
  const double a = 5.0;
  const double v = integrate_gl(
      [](double x) { return std::exp(-0.5 * x * x); }, -a, a, 16);
  const double closed =
      std::sqrt(2.0 * std::numbers::pi) * std::erf(a / std::sqrt(2.0));
  EXPECT_NEAR(v, closed, 1e-10);
}

TEST(Integrate, ZeroWidthIntervalIsZero) {
  EXPECT_DOUBLE_EQ(integrate_gl([](double) { return 1.0; }, 1.0, 1.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(integrate_adaptive([](double) { return 1.0; }, 1.0, 1.0),
                   0.0);
}

// ----------------------------------------------------------------- interp

TEST(Interp, ReproducesKnots) {
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 4.0, 9.0});
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(2.0), 4.0);
  EXPECT_DOUBLE_EQ(f(3.0), 9.0);
}

TEST(Interp, MonotoneDataStaysMonotone) {
  // Data with a sharp bend that cubic splines overshoot.
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 0.01, 0.02, 5.0, 10.0});
  double prev = f(0.0);
  for (double x = 0.01; x <= 4.0; x += 0.01) {
    const double y = f(x);
    EXPECT_GE(y, prev - 1e-12) << "x=" << x;
    prev = y;
  }
}

TEST(Interp, ClampsOutsideRange) {
  MonotoneCubic f({0.0, 1.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f(-1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(9.0), 5.0);
  EXPECT_DOUBLE_EQ(f.derivative(-1.0), 0.0);
}

TEST(Interp, DerivativeMatchesFiniteDifference) {
  MonotoneCubic f({0.0, 1.0, 2.0, 3.0}, {0.0, 2.0, 3.0, 3.5});
  for (double x : {0.4, 1.5, 2.7}) {
    const double h = 1e-6;
    EXPECT_NEAR(f.derivative(x), (f(x + h) - f(x - h)) / (2 * h), 1e-5);
  }
}

TEST(Interp, RejectsNonIncreasingKnots) {
  EXPECT_THROW(MonotoneCubic({0.0, 0.0}, {1.0, 2.0}), cny::ContractViolation);
  EXPECT_THROW(MonotoneCubic({1.0}, {1.0}), cny::ContractViolation);
}

/// Queries a fresh LazyMonotoneCubic over `f` at `n` shuffled abscissae
/// spanning a little beyond the knots, expecting the bits of the eager
/// MonotoneCubic over the same samples; returns the summed fill work. Each
/// segment is also read first on a table of its own, so that its own
/// certificate decides, whatever the shuffle reads before it.
LazyMonotoneCubic::Filled expect_lazy_matches_eager(
    const std::vector<double>& xs, const std::function<double(double)>& f,
    std::size_t n) {
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(f(x));
  const MonotoneCubic eager(xs, ys);
  const LazyMonotoneCubic lazy(xs);
  const double lo = xs.front(), hi = xs.back(), span = hi - lo;
  std::vector<double> at;
  for (std::size_t i = 0; i < n; ++i) {
    at.push_back(lo - 0.01 * span +
                 1.02 * span * static_cast<double>(i) /
                     static_cast<double>(n - 1));
  }
  at.insert(at.end(), xs.begin(), xs.end());  // every knot itself
  std::shuffle(at.begin(), at.end(), std::mt19937_64(20100613));
  std::size_t fills = 0;
  const LazyMonotoneCubic::Fill fill = [&](double x) {
    ++fills;
    return f(x);
  };
  LazyMonotoneCubic::Filled total;
  for (const double x : at) {
    LazyMonotoneCubic::Filled filled;
    const double got = lazy(x, fill, &filled);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(eager(x)))
        << "x=" << x << " lazy=" << got << " eager=" << eager(x);
    if (!filled.fallback) {
      EXPECT_LE(filled.knots, 6u) << "a certified read fills its stencil";
    }
    total.knots += filled.knots;
    total.fallback = total.fallback || filled.fallback;
  }
  EXPECT_EQ(fills, total.knots) << "single-threaded: every fill publishes";
  for (std::size_t k = 0; k + 1 < xs.size(); ++k) {
    const double x = 0.5 * (xs[k] + xs[k + 1]);
    const LazyMonotoneCubic first(xs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first(x, f)),
              std::bit_cast<std::uint64_t>(eager(x)))
        << "first read, segment " << k;
  }
  return total;
}

std::vector<double> geometric_knots(double lo, double hi, std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(lo * std::pow(hi / lo, static_cast<double>(i) /
                                            static_cast<double>(n - 1)));
  }
  return xs;
}

TEST(LazyInterp, SmoothDataMatchesEagerBitForBitWithoutFallback) {
  // A log p_F(W)-like curve: steep and curved at small W, nearly linear
  // at large W.
  const auto xs = geometric_knots(4.0, 400.0, 65);
  const auto f = [](double w) { return -0.06 * w - 2.0 * std::log1p(w); };
  const auto total = expect_lazy_matches_eager(xs, f, 1500);
  EXPECT_FALSE(total.fallback);
  EXPECT_EQ(total.knots, xs.size());
}

TEST(LazyInterp, ClippingKinkFallsBackAndStillMatchesBitForBit) {
  // A sharp bend makes the Fritsch–Carlson filter clip (the initial tangent
  // at the bend is ~250x the secant before it): reads near it fail the
  // locality certificate, the table falls back to whole-table tangents,
  // and values stay exact.
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(static_cast<double>(i));
  const auto kink = [](double x) {
    return x < 20.0 ? 0.01 * x : 0.19 + 5.0 * (x - 19.0);
  };
  const auto total = expect_lazy_matches_eager(xs, kink, 1200);
  EXPECT_TRUE(total.fallback);
  EXPECT_EQ(total.knots, xs.size());
  // Far from the bend the certificate holds: one read fills its stencil.
  const LazyMonotoneCubic lazy(xs);
  LazyMonotoneCubic::Filled filled;
  (void)lazy(5.5, kink, &filled);
  EXPECT_EQ(filled.knots, 6u);
  EXPECT_FALSE(filled.fallback);
  // A flat run (zero secants) fails the certificate as well.
  const auto flat = [](double x) { return std::min(x, 20.0); };
  EXPECT_TRUE(expect_lazy_matches_eager(xs, flat, 400).fallback);
}

TEST(LazyInterp, ClampedReadsFillOnlyTheirEndKnot) {
  const LazyMonotoneCubic lazy({0.0, 1.0, 2.0, 3.0});
  const auto f = [](double x) { return 2.0 * x + 1.0; };
  LazyMonotoneCubic::Filled filled;
  EXPECT_EQ(lazy(-1.0, f, &filled), 1.0);
  EXPECT_EQ(filled.knots, 1u);
  EXPECT_EQ(lazy(9.0, f, &filled), 7.0);
  EXPECT_EQ(filled.knots, 2u);
  EXPECT_EQ(lazy(3.0, f, &filled), 7.0);
  EXPECT_EQ(filled.knots, 2u) << "a filled knot is never filled again";
  EXPECT_THROW(LazyMonotoneCubic({1.0, 1.0}), cny::ContractViolation);
}

}  // namespace
