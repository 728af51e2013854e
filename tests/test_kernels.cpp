// Pins for the kernel-backend layer (src/kernels/): the node-lane p_F term
// loop (single widths and FailureModel's batched exact path) and the MC
// post-draw kernels must be *bit-identical* to their scalar references on
// every backend, and the dispatch seam must honour forced-scalar mode.
// These tests are the contract that makes --simd and batching pure speed
// knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "celllib/generator.h"
#include "cnt/growth.h"
#include "cnt/pf_kernel.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "service/protocol.h"
#include "yield/flow.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "geom/interval.h"
#include "kernels/dispatch.h"
#include "kernels/mc_kernels.h"
#include "kernels/pf_terms_impl.h"
#include "numeric/special.h"
#include "obs/metrics.h"
#include "rng/distributions.h"
#include "rng/engine.h"
#include "exec/mc_policy.h"
#include "exec/thread_pool.h"
#include "yield/monte_carlo.h"

namespace {

using cny::cnt::pf_truncated;
using cny::cnt::PitchModel;
using cny::kernels::SimdMode;

/// Sets the process-wide SIMD mode, restoring the previous one on scope
/// exit — tests mutate it, and guards nest.
class ModeGuard {
 public:
  explicit ModeGuard(SimdMode mode) : prev_(cny::kernels::simd_mode()) {
    cny::kernels::set_simd_mode(mode);
  }
  ~ModeGuard() { cny::kernels::set_simd_mode(prev_); }

 private:
  SimdMode prev_;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The scalar reference: pf_truncated with the SIMD backend forced off.
cny::cnt::PfKernelResult pf_scalar_reference(const PitchModel& pitch,
                                             double width, double z,
                                             double rel_tol,
                                             unsigned n_threads = 1) {
  ModeGuard guard(SimdMode::Off);
  return pf_truncated(pitch, width, z, rel_tol, n_threads);
}

/// Exact-bits comparison of a set of widths, each evaluated under the
/// current SIMD mode, against the scalar reference.
void expect_widths_match_scalar(const PitchModel& pitch,
                                const std::vector<double>& widths, double z,
                                double rel_tol) {
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto got = pf_truncated(pitch, widths[i], z, rel_tol);
    const auto ref = pf_scalar_reference(pitch, widths[i], z, rel_tol);
    EXPECT_EQ(bits_of(got.value), bits_of(ref.value))
        << "value #" << i << " w=" << widths[i] << " z=" << z
        << " backend=" << cny::kernels::backend_name();
    EXPECT_EQ(got.terms, ref.terms)
        << "terms #" << i << " w=" << widths[i] << " z=" << z;
    EXPECT_EQ(bits_of(got.remainder_bound), bits_of(ref.remainder_bound))
        << "remainder #" << i << " w=" << widths[i] << " z=" << z;
  }
}

// Batch compositions: sub-mean-pitch widths, zero-width specials
// mid-batch, single widths, and a spread wide enough to give widths very
// different truncation points.
const std::vector<std::vector<double>> kWidthSets = {
    {20.0, 36.0, 52.0, 68.0},                    // four coherent widths
    {8.0, 155.0},                                // two, far apart
    {33.0},                                      // single width
    {1.5, 2.0, 3.9, 40.0, 80.0, 120.0, 500.0},   // sub-pitch + big spread
    {0.0, 25.0, 0.0, 30.0, 35.0, 40.0, 45.0},    // specials interleaved
};

TEST(PfBatch, BitIdenticalToScalarAcrossPitchesWidthsAndZ) {
  // cv = 1 and 1/√2 take the integer-shape ladder; 0.6/0.9/1.2 the
  // non-integer prefactored path (series + continued fraction).
  for (double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    const PitchModel pitch(4.0, cv);
    for (const auto& widths : kWidthSets) {
      for (double z : {0.0, 0.2, 0.531, 0.9, 1.0}) {
        expect_widths_match_scalar(pitch, widths, z, 1e-14);
      }
    }
  }
}

TEST(PfBatch, BitIdenticalUnderForcedScalarDispatch) {
  ModeGuard guard(SimdMode::Off);
  ASSERT_STREQ(cny::kernels::backend_name(), "scalar");
  const PitchModel pitch(4.0, 0.9);
  for (const auto& widths : kWidthSets) {
    expect_widths_match_scalar(pitch, widths, 0.531, 1e-14);
  }
}

TEST(PfBatch, SimdAndScalarModesAgreeBitForBit) {
  // The acceptance criterion stated directly: whatever the host supports,
  // --simd=off and --simd=auto produce the same bytes — per width, and
  // through FailureModel::p_f_exact_batch (one memo probe, then the
  // misses) on a fresh model per mode.
  const PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths = {1.5, 20.0, 36.0, 52.0, 80.0, 155.0};
  const auto evaluate = [&](double z) {
    std::vector<cny::cnt::PfKernelResult> out;
    for (const double w : widths) out.push_back(pf_truncated(pitch, w, z));
    return out;
  };
  for (double z : {0.0, 0.2, 0.531, 0.9}) {
    const auto auto_mode = evaluate(z);
    ModeGuard guard(SimdMode::Off);
    const auto off_mode = evaluate(z);
    for (std::size_t i = 0; i < widths.size(); ++i) {
      EXPECT_EQ(bits_of(auto_mode[i].value), bits_of(off_mode[i].value));
      EXPECT_EQ(auto_mode[i].terms, off_mode[i].terms);
      EXPECT_EQ(bits_of(auto_mode[i].remainder_bound),
                bits_of(off_mode[i].remainder_bound));
    }
  }
  std::vector<std::vector<double>> batched;
  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    const cny::device::FailureModel model(pitch, cny::cnt::fig21_mid());
    batched.push_back(model.p_f_exact_batch(widths));
  }
  for (std::size_t i = 0; i < widths.size(); ++i) {
    EXPECT_EQ(bits_of(batched[0][i]), bits_of(batched[1][i])) << widths[i];
    EXPECT_EQ(bits_of(batched[0][i]),
              bits_of(pf_scalar_reference(pitch, widths[i],
                                          cny::cnt::fig21_mid().p_fail(),
                                          cny::cnt::kPfRelTol)
                          .value))
        << widths[i];
  }
}

TEST(PfBatch, ExtremeTolerancesAndWideWindowFallback) {
  const PitchModel pitch(4.0, 0.9);
  for (double rel_tol : {1e-4, 1e-15}) {
    expect_widths_match_scalar(pitch, {12.0, 47.0, 90.0, 130.0}, 0.7,
                                rel_tol);
  }
  // width/θ ≥ 650 (θ = 4·0.81 = 3.24 → width ≥ 2106) rides the gamma_q
  // fallback; batching must still hold bit-identity via the scalar path.
  expect_widths_match_scalar(pitch, {2200.0, 30.0, 2500.0, 45.0}, 0.5,
                              1e-12);
}

TEST(PfNodeLanes, BitIdenticalToScalarReference) {
  // Single widths, node lanes (Auto) against the scalar reference (Off),
  // at one and three threads: the integer-shape ladder (CV 1 and 1/√2)
  // and the prefactored series + continued fraction (CV 0.6/0.9/1.2),
  // loose to tight tolerances. Every prefactored width past its first
  // term straddles the x < a+1 split: the split sweeps through the node
  // range as the shape a = n·k grows, and node order alternates between
  // the two halves of each panel, so 4-node packets mix both branches.
  // Node counts are always multiples of 32 (16-point panels, interior
  // nodes), so ragged packets are pinned by the direct test below.
  std::vector<double> widths;
  for (const auto& set : kWidthSets) {
    widths.insert(widths.end(), set.begin(), set.end());
  }
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  for (double cv : {0.6, 0.7071067811865476, 0.9, 1.0, 1.2}) {
    const PitchModel pitch(4.0, cv);
    for (double w : widths) {
      for (double z : {0.0, 0.2, 0.531, 0.9}) {
        for (double rel_tol : {1e-4, 1e-14, 1e-15}) {
          for (unsigned threads : {1u, 3u}) {
            const auto got = pf_truncated(pitch, w, z, rel_tol, threads);
            const auto ref = pf_scalar_reference(pitch, w, z, rel_tol,
                                                 threads);
            EXPECT_EQ(bits_of(got.value), bits_of(ref.value))
                << "cv=" << cv << " w=" << w << " z=" << z
                << " tol=" << rel_tol << " threads=" << threads;
            EXPECT_EQ(got.terms, ref.terms)
                << "cv=" << cv << " w=" << w << " z=" << z;
            EXPECT_EQ(bits_of(got.remainder_bound),
                      bits_of(ref.remainder_bound))
                << "cv=" << cv << " w=" << w << " z=" << z;
          }
        }
      }
    }
  }
}

#if defined(CNY_SIMD)
TEST(PfNodeLanes, RaggedNodeRangesMatchScalarBodies) {
  // pf_truncated only hands the node bodies whole 4-node packets, but the
  // bodies take any [lo, hi): a ragged tail is padded (ladder) or pooled
  // by branch (prefactored). Pin those paths against a scalar replay of
  // the reference bodies in cnt/pf_kernel.cpp, over ranges whose packet
  // boundaries all differ.
  if (!cny::kernels::simd_supported()) GTEST_SKIP() << "host lacks AVX2";
  namespace kd = cny::kernels::detail;
  constexpr std::size_t kNodes = 23;
  const double k = PitchModel(4.0, 0.9).shape();
  const double a = 7.0 * k;  // series below x = a + 1 ≈ 9.6, CF above
  const double rho = 0.0123;
  const double eps = 1e-13;
  const long k_int = 2;
  const double shape = 5.0;
  std::vector<double> xs(kNodes), xk(kNodes), tau0(kNodes), inv(120);
  for (std::size_t j = 0; j < kNodes; ++j) {
    // x in [2, 17.4], the two branches interleaved in node order.
    xs[j] = 2.0 + 0.7 * static_cast<double>((j * 7) % kNodes);
    xk[j] = std::pow(xs[j], k);
    tau0[j] = std::exp(-xs[j]);
  }
  for (std::size_t i = 1; i < inv.size(); ++i) {
    inv[i] = 1.0 / (a + static_cast<double>(i));
  }
  std::vector<double> tau_ref(kNodes), q_ref(kNodes), t_ref(kNodes),
      dq_ref(kNodes);
  for (std::size_t j = 0; j < kNodes; ++j) {
    const double x = xs[j];
    tau_ref[j] = tau0[j] * (xk[j] * rho);
    if (x < a + 1.0) {
      double del = 1.0;
      double sum = 1.0;
      for (std::size_t i = 1; i < inv.size(); ++i) {
        del *= x * inv[i];
        sum += del;
        if (del < sum * eps) break;
      }
      q_ref[j] = 1.0 - tau_ref[j] * sum;
    } else {
      q_ref[j] = cny::numeric::gamma_q_prefactored(a, x, tau_ref[j], eps);
    }
    double t = tau0[j];
    double sum = 0.0;
    for (long s = 0; s < k_int; ++s) {
      sum += t;
      t *= x / (shape + static_cast<double>(s) + 1.0);
    }
    t_ref[j] = t;
    dq_ref[j] = sum;
  }

  const std::size_t ranges[][2] = {{0, 23}, {1, 22}, {3, 20}, {5, 6},
                                   {0, 4},  {2, 9},  {21, 23}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<double> tau = tau0, q(kNodes, -1.0);
    kd::pf_prefactored_nodes_avx2(xs.data(), xk.data(), tau.data(), q.data(),
                                  lo, hi, a, rho, eps, inv.data(),
                                  inv.size());
    std::vector<double> t = tau0, dq(kNodes, -1.0);
    kd::pf_ladder_nodes_avx2(xs.data(), t.data(), dq.data(), lo, hi, k_int,
                             shape);
    for (std::size_t j = 0; j < kNodes; ++j) {
      const bool in = j >= lo && j < hi;
      EXPECT_EQ(bits_of(tau[j]), bits_of(in ? tau_ref[j] : tau0[j]))
          << "[" << lo << "," << hi << ") node " << j;
      EXPECT_EQ(bits_of(q[j]), bits_of(in ? q_ref[j] : -1.0))
          << "[" << lo << "," << hi << ") node " << j;
      EXPECT_EQ(bits_of(t[j]), bits_of(in ? t_ref[j] : tau0[j]))
          << "[" << lo << "," << hi << ") node " << j;
      EXPECT_EQ(bits_of(dq[j]), bits_of(in ? dq_ref[j] : -1.0))
          << "[" << lo << "," << hi << ") node " << j;
    }
  }
}
#endif

/// Exact-bits comparison of the node-sharded single-width kernel at 2-4
/// threads (3 leaves an odd thread out of the shard hand-off) against the
/// one-thread run, in all three result fields. Repeated: a reduction that
/// depends on the schedule shows only in runs where shards finish out of
/// node order.
void expect_thread_count_invariant(const PitchModel& pitch, double width,
                                   double z) {
  const auto ref = pf_truncated(pitch, width, z, cny::cnt::kPfRelTol, 1);
  ASSERT_GT(ref.terms, 0);
  for (unsigned threads : {1u, 2u, 3u, 4u, 2u, 3u, 4u, 4u}) {
    const auto r = pf_truncated(pitch, width, z, cny::cnt::kPfRelTol, threads);
    EXPECT_EQ(bits_of(r.value), bits_of(ref.value))
        << "w=" << width << " threads=" << threads;
    EXPECT_EQ(r.terms, ref.terms) << "w=" << width << " threads=" << threads;
    EXPECT_EQ(bits_of(r.remainder_bound), bits_of(ref.remainder_bound))
        << "w=" << width << " threads=" << threads;
  }
}

TEST(PfSharded, BitIdenticalAcrossThreadCountsOnEveryPath) {
  // CV = 1: integer-shape ladder.
  expect_thread_count_invariant(PitchModel(4.0, 1.0), 155.0, 0.531);
  // CV = 0.9: prefactored series / continued fraction.
  expect_thread_count_invariant(PitchModel(4.0, 0.9), 155.0, 0.531);
  // CV = 0.3 (θ = 0.36) at W = 240: W/θ ≥ 650, the gamma_q fallback.
  expect_thread_count_invariant(PitchModel(4.0, 0.3), 240.0, 0.531);
}

TEST(PfSharded, BitIdenticalWhenCalledFromParallelForBodies) {
  // Nested inside a parallel loop the kernel's shards run inline on
  // whichever thread holds the index; the values must not notice.
  const PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths = {60.0, 155.0, 230.0, 310.0};
  std::vector<cny::cnt::PfKernelResult> nested(widths.size());
  cny::exec::parallel_for(widths.size(), 4, [&](std::size_t i) {
    nested[i] = pf_truncated(pitch, widths[i], 0.531, cny::cnt::kPfRelTol, 4);
  });
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const auto ref = pf_truncated(pitch, widths[i], 0.531);
    EXPECT_EQ(bits_of(nested[i].value), bits_of(ref.value)) << widths[i];
    EXPECT_EQ(nested[i].terms, ref.terms) << widths[i];
    EXPECT_EQ(bits_of(nested[i].remainder_bound),
              bits_of(ref.remainder_bound))
        << widths[i];
  }
}

TEST(Dispatch, ReportsConsistentState) {
  // Auto mode: active ⇔ compiled-in AND host support. Off: never active.
  EXPECT_EQ(cny::kernels::simd_active(),
            cny::kernels::simd_compiled() && cny::kernels::simd_supported());
  EXPECT_STREQ(cny::kernels::backend_name(),
               cny::kernels::simd_active() ? "avx2" : "scalar");
  ModeGuard guard(SimdMode::Off);
  EXPECT_FALSE(cny::kernels::simd_active());
  EXPECT_STREQ(cny::kernels::backend_name(), "scalar");
}

TEST(McKernels, ThinningMatchesScalarPredicateInBothModes) {
  cny::rng::Xoshiro256 rng(99);
  for (std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 17ul, 256ul, 1001ul}) {
    std::vector<double> ys(n);
    std::vector<double> us(n);
    for (std::size_t i = 0; i < n; ++i) {
      ys[i] = static_cast<double>(i) * 3.7;
      us[i] = rng.uniform();
    }
    for (double pf : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<double> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(us[i] < pf)) expected.push_back(ys[i]);
      }
      std::vector<double> got;
      cny::kernels::thin_functional(ys, us, pf, got);
      EXPECT_EQ(got, expected) << "auto n=" << n << " pf=" << pf;
      ModeGuard guard(SimdMode::Off);
      cny::kernels::thin_functional(ys, us, pf, got);
      EXPECT_EQ(got, expected) << "off n=" << n << " pf=" << pf;
    }
  }
}

TEST(McKernels, WindowSweepMatchesPerWindowLowerBound) {
  cny::rng::Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_points = rng.uniform_index(40);
    std::vector<double> points(n_points);
    for (auto& p : points) p = rng.uniform(0.0, 100.0);
    std::sort(points.begin(), points.end());
    const std::size_t n_windows = 1 + rng.uniform_index(8);
    std::vector<cny::geom::Interval> windows(n_windows);
    for (auto& w : windows) {
      w.lo = rng.uniform(0.0, 95.0);
      w.hi = w.lo + rng.uniform(0.1, 20.0);
    }
    std::sort(windows.begin(), windows.end(),
              [](const auto& a, const auto& b) { return a.lo < b.lo; });
    // Reference: the historical per-window binary search.
    bool expected = false;
    for (const auto& w : windows) {
      const auto it = std::lower_bound(points.begin(), points.end(), w.lo);
      if (!(it != points.end() && *it < w.hi)) {
        expected = true;
        break;
      }
    }
    EXPECT_EQ(cny::kernels::any_window_empty_sorted(points, windows),
              expected)
        << "auto trial " << trial;
    ModeGuard guard(SimdMode::Off);
    EXPECT_EQ(cny::kernels::any_window_empty_sorted(points, windows),
              expected)
        << "off trial " << trial;
  }
}

TEST(McKernels, FunctionalPositionsMatchesHistoricalFusedLoop) {
  // The two-phase restructure must keep both the output and the RNG
  // consumption of the original fused loop: replay the historical draw
  // sequence by hand and require identical positions AND identical engine
  // state afterwards.
  const PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_mid();
  const cny::cnt::DirectionalGrowth growth(pitch, proc, 2.0e5);
  const double pf = proc.p_fail();
  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    cny::rng::Xoshiro256 rng_new(1234);
    cny::rng::Xoshiro256 rng_ref(1234);
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> got;
      growth.functional_positions(rng_new, 0.0, 300.0, got);
      std::vector<double> expected;
      double y = 0.0 + pitch.sample_equilibrium(rng_ref);
      while (y < 300.0) {
        if (!cny::rng::sample_bernoulli(rng_ref, pf)) expected.push_back(y);
        y += pitch.sample(rng_ref);
      }
      ASSERT_EQ(got.size(), expected.size()) << "rep " << rep;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(bits_of(got[i]), bits_of(expected[i]));
      }
      EXPECT_EQ(rng_new.state(), rng_ref.state()) << "rep " << rep;
    }
  }
}

TEST(McKernels, ChipYieldBitEqualAcrossSimdModesAndThreads) {
  // The full MC determinism contract with the new kernels underneath:
  // (seed, n_streams) fixes the result; SIMD mode and worker threads don't.
  const PitchModel pitch(4.0, 0.9);
  const auto proc = cny::cnt::fig21_mid();
  const cny::cnt::DirectionalGrowth growth(pitch, proc, 2.0e5);
  cny::yield::ChipSpec spec;
  spec.n_rows = 4;
  spec.row_windows = {{10.0, 14.0}, {2.0, 6.0}, {22.0, 27.0}, {4.0, 9.0}};

  std::vector<cny::yield::ChipMcResult> results;
  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    for (unsigned threads : {1u, 2u, 8u}) {
      cny::rng::Xoshiro256 rng(2024);
      cny::exec::McPolicy policy;
      policy.n_threads = threads;
      policy.n_streams = 8;
      results.push_back(cny::yield::simulate_chip_yield(
          growth, spec, cny::yield::GrowthStyle::Directional, 400, rng,
          policy));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(bits_of(results[i].chip_yield), bits_of(results[0].chip_yield))
        << i;
    EXPECT_EQ(bits_of(results[i].p_rf), bits_of(results[0].p_rf)) << i;
    EXPECT_EQ(results[i].rows_simulated, results[0].rows_simulated) << i;
  }
}

TEST(Kernels, RunFlowResponseByteIdenticalAcrossSimdModes) {
  // The end-to-end acceptance pin: a full run_flow — interpolant build,
  // solver iterations, circuit-yield verification, conditional MC — must
  // produce the *same bytes* on the wire whichever backend ran the
  // kernels. A fresh model per mode keeps the memo from hiding a
  // divergent kernel behind a warm cache.
  const auto lib = cny::celllib::make_nangate45_like();
  const auto design = cny::netlist::make_openrisc_like(lib);
  cny::yield::FlowParams params;
  params.mc_samples = 400;
  params.seed = 7;
  params.n_threads = 2;

  std::vector<std::string> encoded;
  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    const cny::device::FailureModel model(PitchModel(4.0, 0.9),
                                          cny::cnt::fig21_mid());
    const auto warm =
        cny::yield::warm_model(model, params.scenario, 33, params.n_threads);
    encoded.push_back(cny::service::encode_flow_response(
        cny::yield::run_flow(lib, design, warm, params)));
  }
  EXPECT_EQ(encoded[0], encoded[1]);
}

TEST(Kernels, ExactRunFlowResponseByteIdenticalAcrossSimdModes) {
  // The `cntyield_cli flow` shape: no interpolant, so every W_min solve
  // step runs the exact kernel on a single width (node lanes under Auto).
  const auto lib = cny::celllib::make_nangate45_like();
  const auto design = cny::netlist::make_openrisc_like(lib);
  cny::yield::FlowParams params;
  params.mc_samples = 400;
  params.seed = 7;
  params.n_threads = 2;

  std::vector<std::string> encoded;
  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    const cny::device::FailureModel model(PitchModel(4.0, 0.9),
                                          cny::cnt::fig21_mid());
    encoded.push_back(cny::service::encode_flow_response(
        cny::yield::run_flow(lib, design, model, params)));
  }
  EXPECT_EQ(encoded[0], encoded[1]);
}

// Backend accounting must balance: every exact single-width term loop is
// booked once, as either a SIMD or a scalar width — on *both* backends
// (forced-scalar books everything scalar).
TEST(Kernels, BackendWidthCountersBalanceOnEveryBackend) {
  auto& registry = cny::obs::Registry::global();
  const PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths{20.0, 36.0, 52.0, 68.0, 84.0,
                                   100.0, 116.0};  // no degenerate entries

  for (SimdMode mode : {SimdMode::Auto, SimdMode::Off}) {
    ModeGuard guard(mode);
    const auto before = registry.snapshot();
    const auto counter = [&before](const char* name) {
      for (const auto& [n, v] : before.counters) {
        if (n == name) return v;
      }
      return std::uint64_t{0};
    };
    const std::uint64_t simd0 = counter("kernels.pf_simd_widths");
    const std::uint64_t scalar0 = counter("kernels.pf_scalar_widths");

    for (const double w : widths) (void)pf_truncated(pitch, w, 0.531, 1e-12);

    const std::uint64_t simd =
        registry.counter("kernels.pf_simd_widths").value() - simd0;
    const std::uint64_t scalar =
        registry.counter("kernels.pf_scalar_widths").value() - scalar0;
    EXPECT_EQ(simd + scalar, widths.size())
        << "backend=" << cny::kernels::backend_name();
    if (cny::kernels::simd_active()) {
      EXPECT_EQ(simd, widths.size()) << "prefactored widths ride node lanes";
    } else {
      EXPECT_EQ(simd, 0u) << "forced-scalar must book no SIMD widths";
    }
  }
}

}  // namespace
