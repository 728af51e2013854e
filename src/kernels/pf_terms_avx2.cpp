// AVX2 node-lane bodies of the truncated-PGF term loop
// (cnt/pf_kernel.cpp): four quadrature nodes of one width per register.
// Every exact p_F evaluation — a single Brent abscissa, an interpolant
// knot, a p_f_exact_batch miss — runs its per-term node shards through
// these bodies when the AVX2 backend is active.
//
// Bit-identity is the design constraint everything here serves:
//
//  * Only IEEE-exact elementwise ops (+, −, ×, ÷, compares, blends) are
//    vectorized. Each node's value sequence is then *identical* to the
//    scalar body's — vmulpd lane arithmetic is the same operation as
//    mulsd, bit for bit. Per-term transcendentals (lgamma_r, exp) stay
//    in the scalar caller; nothing ever calls a vector math library.
//  * This translation unit is compiled -mavx2 -mno-fma -ffp-contract=off:
//    the compiler cannot contract a·b+c into an FMA the scalar kernel
//    (baseline x86-64, no FMA) would not have used.
//  * Divergent trip counts — per-node series/continued-fraction
//    convergence breaks — are handled by freezing: a lane that exits a
//    scalar loop has its state captured at that iteration, and whatever
//    the still-running lanes compute afterwards is discarded. The
//    captured value is the scalar value.
//  * A packet whose nodes straddle the x < a+1 split, and the tail of a
//    shard, are pooled by branch into full vectors: each node's
//    arithmetic is elementwise, so which nodes share a vector cannot
//    change any node's bits. Padding lanes are outside every live mask.
//  * Only node-indexed slots (τ, q) are written. The diff clip, the
//    contributions and the node-order term sums stay in the scalar
//    caller, so no reduction order depends on the backend.
//
// Consequence worth stating: this file must mirror the scalar node bodies
// in cnt/pf_kernel.cpp (and gamma_q_prefactored's continued fraction)
// operation by operation. When either changes, change this file in
// lockstep — the bit-identity suite in tests/test_kernels.cpp fails
// loudly if they drift.
#include "kernels/pf_terms_impl.h"

#include <immintrin.h>

#include <algorithm>

namespace cny::kernels::detail {

namespace {

constexpr int kLanes = 4;

inline unsigned movemask(__m256d v) {
  return static_cast<unsigned>(_mm256_movemask_pd(v));
}

/// Copies the lanes selected by `bits` out of `v` into `out[lane]`.
inline void save_lanes(__m256d v, unsigned bits, double out[kLanes]) {
  alignas(32) double buf[kLanes];
  _mm256_store_pd(buf, v);
  for (int l = 0; l < kLanes; ++l) {
    if (bits & (1u << l)) out[l] = buf[l];
  }
}

/// Lane-parallel p_series_sum (cnt/pf_kernel.cpp): per-lane series
///   sum = 1 + Σ_i x·inv[1] ··· x·inv[i]
/// frozen at each lane's scalar exit — the eps break (after the update,
/// like the scalar loop) or the lane's own reciprocal-table length.
/// Returns the per-lane frozen sums; lanes outside `act0` hold garbage.
inline __m256d series_sums(__m256d x, __m256d eps, unsigned act0,
                           const long len[kLanes], const double* inv) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d del = one;
  __m256d sum = one;
  alignas(32) double frozen[kLanes] = {1.0, 1.0, 1.0, 1.0};
  unsigned act = act0;
  long min_len = 0;
  for (int l = 0; l < kLanes; ++l) {
    if (act0 & (1u << l)) {
      min_len = min_len == 0 ? len[l] : std::min(min_len, len[l]);
    }
  }
  long i = 1;
  while (act != 0) {
    if (i + 3 < min_len) {
      // Fast region, 4 iterations per trip: the del→sum chain is
      // latency-bound (each step multiplies the previous del), so the
      // per-iteration movemask+branch would otherwise ride the critical
      // path. Compute four steps back to back, check all four break
      // predicates with ONE movemask, and only when some lane broke
      // resolve *which step* it broke at, in order — a lane that breaks
      // at step s keeps sum_s, exactly the value the scalar loop exits
      // with, and whatever steps s+1.. computed for it is discarded.
      const __m256d d1 =
          _mm256_mul_pd(del, _mm256_mul_pd(x, _mm256_set1_pd(inv[i])));
      const __m256d s1 = _mm256_add_pd(sum, d1);
      const __m256d d2 =
          _mm256_mul_pd(d1, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 1])));
      const __m256d s2 = _mm256_add_pd(s1, d2);
      const __m256d d3 =
          _mm256_mul_pd(d2, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 2])));
      const __m256d s3 = _mm256_add_pd(s2, d3);
      const __m256d d4 =
          _mm256_mul_pd(d3, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 3])));
      const __m256d s4 = _mm256_add_pd(s3, d4);
      const __m256d b1 =
          _mm256_cmp_pd(d1, _mm256_mul_pd(s1, eps), _CMP_LT_OQ);
      const __m256d b2 =
          _mm256_cmp_pd(d2, _mm256_mul_pd(s2, eps), _CMP_LT_OQ);
      const __m256d b3 =
          _mm256_cmp_pd(d3, _mm256_mul_pd(s3, eps), _CMP_LT_OQ);
      const __m256d b4 =
          _mm256_cmp_pd(d4, _mm256_mul_pd(s4, eps), _CMP_LT_OQ);
      const unsigned any =
          movemask(_mm256_or_pd(_mm256_or_pd(b1, b2), _mm256_or_pd(b3, b4))) &
          act;
      if (any != 0) {
        const __m256d steps[4] = {b1, b2, b3, b4};
        const __m256d sums[4] = {s1, s2, s3, s4};
        for (int s = 0; s < 4 && act != 0; ++s) {
          const unsigned brk = movemask(steps[s]) & act;
          if (brk != 0) {
            save_lanes(sums[s], brk, frozen);
            act &= ~brk;
          }
        }
      }
      del = d4;
      sum = s4;
      i += 4;
      continue;
    }
    // Expiry region (or short table), one iteration at a time — the
    // scalar loop's shape, `i < len` checked before the body.
    unsigned expired = 0;
    for (int l = 0; l < kLanes; ++l) {
      if ((act & (1u << l)) && i >= len[l]) expired |= 1u << l;
    }
    if (expired != 0) {
      save_lanes(sum, expired, frozen);
      act &= ~expired;
      if (act == 0) break;
    }
    // Broken lanes keep computing harmlessly — their result is already
    // frozen; skipping blends keeps the loop at scalar op parity.
    del = _mm256_mul_pd(del, _mm256_mul_pd(x, _mm256_set1_pd(inv[i])));
    sum = _mm256_add_pd(sum, del);
    const unsigned brk =
        movemask(_mm256_cmp_pd(del, _mm256_mul_pd(sum, eps), _CMP_LT_OQ)) &
        act;
    if (brk != 0) {
      save_lanes(sum, brk, frozen);
      act &= ~brk;
    }
    ++i;
  }
  return _mm256_load_pd(frozen);
}

/// Lane-parallel continued-fraction branch of numeric::gamma_q_prefactored:
/// modified Lentz with the scalar kernel's exact clamp and break sequence,
/// per-lane frozen h at each lane's break (or the 500-iteration cap).
/// Returns q = τ·a·h per lane; lanes outside `act0` hold garbage.
inline __m256d cf_q(double a, __m256d x, __m256d tau, __m256d eps,
                    unsigned act0) {
  constexpr double kCfTiny = 1e-300;
  constexpr int kIterCap = 500;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tiny = _mm256_set1_pd(kCfTiny);
  const __m256d ntiny = _mm256_set1_pd(-kCfTiny);
  const __m256d neps = _mm256_sub_pd(_mm256_setzero_pd(), eps);
  const __m256d va = _mm256_set1_pd(a);

  // b = x + 1 − a; c = 1/tiny; d = 1/b; h = d — the scalar seeds.
  __m256d b = _mm256_sub_pd(_mm256_add_pd(x, one), va);
  __m256d c = _mm256_set1_pd(1.0 / kCfTiny);
  __m256d d = _mm256_div_pd(one, b);
  __m256d h = d;
  alignas(32) double frozen[kLanes] = {};
  unsigned act = act0;
  for (int i = 1; i <= kIterCap && act != 0; ++i) {
    const double an = -i * (i - a);
    const __m256d van = _mm256_set1_pd(an);
    b = _mm256_add_pd(b, two);
    d = _mm256_add_pd(_mm256_mul_pd(van, d), b);
    __m256d clamp = _mm256_and_pd(_mm256_cmp_pd(d, ntiny, _CMP_GT_OQ),
                                  _mm256_cmp_pd(d, tiny, _CMP_LT_OQ));
    d = _mm256_blendv_pd(d, tiny, clamp);
    c = _mm256_add_pd(b, _mm256_div_pd(van, c));
    clamp = _mm256_and_pd(_mm256_cmp_pd(c, ntiny, _CMP_GT_OQ),
                          _mm256_cmp_pd(c, tiny, _CMP_LT_OQ));
    c = _mm256_blendv_pd(c, tiny, clamp);
    d = _mm256_div_pd(one, d);
    const __m256d del = _mm256_mul_pd(d, c);
    h = _mm256_mul_pd(h, del);
    const __m256d dev = _mm256_sub_pd(del, one);
    const unsigned brk =
        movemask(_mm256_and_pd(_mm256_cmp_pd(dev, neps, _CMP_GT_OQ),
                               _mm256_cmp_pd(dev, eps, _CMP_LT_OQ))) &
        act;
    if (brk != 0) {
      save_lanes(h, brk, frozen);
      act &= ~brk;
    }
  }
  // A lane that exhausts the iteration cap exits with its latest h — the
  // scalar loop's fall-through.
  if (act != 0) save_lanes(h, act, frozen);
  return _mm256_mul_pd(_mm256_mul_pd(tau, va), _mm256_load_pd(frozen));
}

/// Nodes of one branch waiting for a full vector: a straddling packet's
/// nodes and a shard's tail nodes, pooled in node order.
struct BranchQueue {
  alignas(32) double x[kLanes];
  alignas(32) double tau[kLanes];
  std::size_t slot[kLanes];
  int n = 0;
};

}  // namespace

void pf_ladder_nodes_avx2(const double* xs, double* tau, double* dq,
                          std::size_t lo, std::size_t hi, long k_int,
                          double shape) {
  const auto packet = [&](const double* x_p, double* tau_p, double* dq_p) {
    const __m256d x = _mm256_loadu_pd(x_p);
    __m256d t = _mm256_loadu_pd(tau_p);
    __m256d sum = _mm256_setzero_pd();
    for (long s = 0; s < k_int; ++s) {
      sum = _mm256_add_pd(sum, t);
      const double denom = shape + static_cast<double>(s) + 1.0;
      t = _mm256_mul_pd(t, _mm256_div_pd(x, _mm256_set1_pd(denom)));
    }
    _mm256_storeu_pd(tau_p, t);
    _mm256_storeu_pd(dq_p, sum);
  };
  std::size_t j = lo;
  for (; j + kLanes <= hi; j += kLanes) packet(xs + j, tau + j, dq + j);
  if (j < hi) {
    // Tail: padded with x = τ = 0, which stay exact zeros; only the live
    // slots are copied back.
    alignas(32) double px[kLanes] = {};
    alignas(32) double pt[kLanes] = {};
    alignas(32) double pd[kLanes];
    std::copy(xs + j, xs + hi, px);
    std::copy(tau + j, tau + hi, pt);
    packet(px, pt, pd);
    std::copy(pt, pt + (hi - j), tau + j);
    std::copy(pd, pd + (hi - j), dq + j);
  }
}

void pf_prefactored_nodes_avx2(const double* xs, const double* xk,
                               double* tau, double* q, std::size_t lo,
                               std::size_t hi, double a, double rho,
                               double eps, const double* inv,
                               std::size_t inv_len) {
  const double split = a + 1.0;
  const __m256d vrho = _mm256_set1_pd(rho);
  const __m256d vsplit = _mm256_set1_pd(split);
  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d one = _mm256_set1_pd(1.0);
  const long len = static_cast<long>(inv_len);
  const long lens[kLanes] = {len, len, len, len};

  // x < a+1: the table-backed series, q = 1 − τ·sum.
  const auto series_q = [&](__m256d x, __m256d t, unsigned act) {
    return _mm256_sub_pd(one,
                         _mm256_mul_pd(t, series_sums(x, veps, act, lens,
                                                      inv)));
  };
  BranchQueue series, cf;
  const auto flush = [&](BranchQueue& qu, bool is_series) {
    if (qu.n == 0) return;
    for (int i = qu.n; i < kLanes; ++i) {
      qu.x[i] = qu.x[0];  // pad: duplicate a live node, result discarded
      qu.tau[i] = qu.tau[0];
    }
    const unsigned act = (1u << qu.n) - 1u;
    const __m256d x = _mm256_load_pd(qu.x);
    const __m256d t = _mm256_load_pd(qu.tau);
    alignas(32) double out[kLanes];
    _mm256_store_pd(out, is_series ? series_q(x, t, act)
                                   : cf_q(a, x, t, veps, act));
    for (int i = 0; i < qu.n; ++i) q[qu.slot[i]] = out[i];
    qu.n = 0;
  };
  const auto push = [&](std::size_t slot) {
    const bool is_series = xs[slot] < split;
    BranchQueue& qu = is_series ? series : cf;
    qu.x[qu.n] = xs[slot];
    qu.tau[qu.n] = tau[slot];
    qu.slot[qu.n] = slot;
    if (++qu.n == kLanes) flush(qu, is_series);
  };

  std::size_t j = lo;
  for (; j + kLanes <= hi; j += kLanes) {
    const __m256d x = _mm256_loadu_pd(xs + j);
    const __m256d t = _mm256_mul_pd(
        _mm256_loadu_pd(tau + j),
        _mm256_mul_pd(_mm256_loadu_pd(xk + j), vrho));
    _mm256_storeu_pd(tau + j, t);
    const unsigned below = movemask(_mm256_cmp_pd(x, vsplit, _CMP_LT_OQ));
    if (below == 0xFu) {
      _mm256_storeu_pd(q + j, series_q(x, t, 0xFu));
    } else if (below == 0u) {
      _mm256_storeu_pd(q + j, cf_q(a, x, t, veps, 0xFu));
    } else {
      for (int l = 0; l < kLanes; ++l) push(j + static_cast<std::size_t>(l));
    }
  }
  for (; j < hi; ++j) {
    tau[j] *= xk[j] * rho;
    push(j);
  }
  flush(series, true);
  flush(cf, false);
}

}  // namespace cny::kernels::detail
