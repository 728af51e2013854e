#include "cnt/pf_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "exec/thread_pool.h"
#include "kernels/dispatch.h"
#include "kernels/pf_terms_impl.h"
#include "numeric/integrate.h"
#include "numeric/special.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::cnt {

using cny::numeric::gamma_cdf;
using cny::numeric::gamma_q;

namespace {

/// Same tail floor as count_distribution.cpp — the two paths must truncate
/// the quadrature domain and the PMF support identically to agree to 1e-12.
constexpr double kTailEps = 1e-22;

/// The integer-shape ladder is seeded at τ(0) = e^{-x}; past x ≈ 650 the
/// seed risks flushing to zero before the recurrence can climb out of the
/// denormals, so wider windows fall back to the per-node gamma_q path.
constexpr double kLadderMaxX = 650.0;

/// Everything about one width that does not depend on z or rel_tol: the
/// node-major quadrature grid, the PMF truncation point, the normalising
/// mass, and the shape-ladder seeds. Built by `pf_setup`, consumed by the
/// term loop `pf_terms`.
struct PfGrid {
  double k = 0.0;          ///< pitch shape
  std::vector<double> xs;  ///< per node: x = (W - u)/θ
  std::vector<double> fw;  ///< per node: GL-weight · f_e(u)
  double p0 = 0.0;         ///< P{N = 0} quadrature value
  double mass_tail = 0.0;  ///< quadrature mass of Σ_{n=1}^{n_stop} pₙ
  double total = 0.0;      ///< p0 + mass_tail (the normaliser)
  long n_stop = 0;         ///< PMF support truncation point
  bool prefactored = false;  ///< width/θ < kLadderMaxX: τ ladder usable
  bool ladder = false;       ///< integer shape: exact Q(a+1)=Q(a)+τ ladder
  long k_int = 0;            ///< rounded shape (ladder path step count)
  std::vector<double> tau0;  ///< τ seeds e^{-x} per node (prefactored only)
  std::vector<double> xk;    ///< x^k per node (non-integer prefactored only)
  std::size_t inv_len = 0;   ///< reciprocal-table length (non-integer only)
};

/// P(a,x)/τ = 1 + x/(a+1) + x²/((a+1)(a+2)) + …, with the reciprocals
/// 1/(a+i) supplied by the per-term table inv[1..len): the shape is shared
/// by every node of a PMF term, so the serial division chain of the
/// classic series (NR's gamma_p_series pays one divide per iteration, and
/// the divide gates the loop-carried dependency) becomes one multiply per
/// iteration. Used on the x < a+1 side like the textbook split — there
/// q = 1 − τ·sum stays ≥ ~0.27, so the subtraction costs no relative
/// precision. Returns the series sum; the caller forms q.
inline double p_series_sum(double x, double eps, const double* inv,
                           std::size_t len) {
  double del = 1.0;
  double sum = 1.0;
  for (std::size_t i = 1; i < len; ++i) {
    del *= x * inv[i];
    sum += del;
    if (del < sum * eps) break;
  }
  return sum;
}

/// Nodes per shard of the sharded node loops: 10-30 shards per pass over
/// the few thousand nodes of a Brent-range width, small enough to balance
/// across cores, large enough that a hand-off costs little next to a
/// shard's incomplete gammas. No value depends on it (nor on the thread
/// count): every cross-node sum is formed afterwards, in node order.
constexpr std::size_t kNodeChunk = 192;

/// Runs body(lo, hi) over [0, n_nodes) in kNodeChunk shards across `team`
/// (a one-thread team runs them inline, in order). The body writes only
/// node-indexed slots of its shard; every cross-node sum is formed
/// afterwards by sum_in_node_order.
template <class Body>
void for_node_chunks(exec::LoopTeam& team, std::size_t n_nodes,
                     const Body& body) {
  const std::size_t chunks = (n_nodes + kNodeChunk - 1) / kNodeChunk;
  team.run(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kNodeChunk;
    body(lo, std::min(n_nodes, lo + kNodeChunk));
  });
}

/// The reduction contract of the sharded loops: per-node contributions
/// summed serially in node order, i.e. the exact op sequence of the
/// single-threaded `sum += contribution(j)` loop. A skipped node holds
/// +0.0, which leaves a non-negative running sum unchanged.
double sum_in_node_order(const std::vector<double>& contrib) {
  double sum = 0.0;
  for (const double c : contrib) sum += c;
  return sum;
}

// Per-term node bodies of pf_terms, scalar reference. Each writes only the
// node-indexed slots of [lo, hi) — the stepped ladder term τ and this
// term's q — and has an AVX2 node-lane twin of the same signature
// (kernels/pf_terms_impl.h) that writes the same bits.

/// Integer-shape ladder: k_int upward steps of τ from `shape`; dq[j] is
/// the all-positive sum of the ladder terms, ΔQ for this PMF term.
void ladder_nodes(const double* xs, double* tau, double* dq, std::size_t lo,
                  std::size_t hi, long k_int, double shape) {
  for (std::size_t j = lo; j < hi; ++j) {
    const double x = xs[j];
    double t = tau[j];
    double sum = 0.0;
    for (long s = 0; s < k_int; ++s) {
      sum += t;
      t *= x / (shape + static_cast<double>(s) + 1.0);
    }
    tau[j] = t;
    dq[j] = sum;
  }
}

/// Non-integer prefactored step: τ advances a−k → a, then q = Q(a, x) —
/// the table-backed series for x < a+1, otherwise gamma_q_prefactored's
/// continued-fraction branch.
void prefactored_nodes(const double* xs, const double* xk, double* tau,
                       double* q, std::size_t lo, std::size_t hi, double a,
                       double rho, double eps, const double* inv,
                       std::size_t inv_len) {
  for (std::size_t j = lo; j < hi; ++j) {
    tau[j] *= xk[j] * rho;
    const double x = xs[j];
    q[j] = x < a + 1.0
               ? 1.0 - tau[j] * p_series_sum(x, eps, inv, inv_len)
               : numeric::gamma_q_prefactored(a, x, tau[j], eps);
  }
}

/// One backend's node bodies. The AVX2 set runs four nodes of the width
/// per register; both sets write the same bits, so the choice is a pure
/// speed knob (kernels/dispatch.h).
struct NodeBodies {
  decltype(&ladder_nodes) ladder;
  decltype(&prefactored_nodes) prefactored;
};

NodeBodies node_bodies([[maybe_unused]] bool simd) {
#if defined(CNY_SIMD)
  if (simd) {
    return {kernels::detail::pf_ladder_nodes_avx2,
            kernels::detail::pf_prefactored_nodes_avx2};
  }
#endif
  return {ladder_nodes, prefactored_nodes};
}

/// Builds the grid for one width (> 0); CNY_ENSUREs that the quadrature
/// mass is 1. Scalar on every backend (its per-node work is transcendental).
/// The per-node loops shard over `n_threads` with node-order reductions,
/// so the grid is the same bits at every thread count.
PfGrid pf_setup(const PitchModel& pitch, double width, unsigned n_threads) {
  PfGrid grid;
  const double k = grid.k = pitch.shape();
  const double theta = pitch.scale();
  const double mu = pitch.mean();

  grid.p0 = std::max(0.0, 1.0 - pitch.equilibrium_cdf(width));
  exec::LoopTeam team(n_threads);

  // Node-major quadrature grid: the panel layout (split point, panel
  // counts, 16-point GL rule) replicates CountDistribution's construction,
  // but f_e(u)·w and x = (W-u)/θ are computed once instead of per term.
  // The layout pass is plain arithmetic; the f_e(u) evaluations (one
  // incomplete gamma each) run sharded afterwards.
  const double u_cap = std::min(width, pitch.upper_quantile(kTailEps));
  const double u_split = std::min(0.5 * u_cap, theta);
  const int panels_head = 24;
  const int panels_tail = std::max(16, static_cast<int>(u_cap / mu) * 4 + 16);

  std::vector<double>& xs = grid.xs;
  std::vector<double>& fw = grid.fw;
  std::vector<double> us;  // per node: abscissa u
  xs.reserve(16 * static_cast<std::size_t>(panels_head + panels_tail));
  fw.reserve(xs.capacity());
  us.reserve(xs.capacity());
  const auto add_panels = [&](double a, double b, int panels) {
    const auto& gn = numeric::gl16_nodes();
    const auto& gw = numeric::gl16_weights();
    const double h = (b - a) / panels;
    for (int p = 0; p < panels; ++p) {
      const double c = a + (p + 0.5) * h;
      const double r = 0.5 * h;
      for (std::size_t i = 0; i < gn.size(); ++i) {
        for (const double u : {c - r * gn[i], c + r * gn[i]}) {
          const double x = (width - u) / theta;
          if (x <= 0.0) continue;
          xs.push_back(x);
          fw.push_back(gw[i] * r);  // times f_e(u) below
          us.push_back(u);
        }
      }
    }
  };
  add_panels(0.0, u_split, panels_head);
  add_panels(u_split, u_cap, panels_tail);
  const std::size_t n_nodes = xs.size();
  for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      fw[j] = fw[j] * pitch.equilibrium_pdf(us[j]);
    }
  });

  // Where the full-PMF path stops: at n_floor, or earlier once the whole
  // remaining count tail P{N > n} ≤ F_{nk}(W) is below kTailEps. Replicated
  // (gamma_cdf is decreasing in the shape, so binary search) because the
  // normalising mass must cover exactly the same support.
  const double expected = width / mu;
  const long n_floor =
      static_cast<long>(expected + 12.0 * std::sqrt(expected) + 16.0);
  long n_stop = n_floor;
  {
    long lo = std::max<long>(1, static_cast<long>(std::floor(expected)) + 1);
    long hi = n_floor;
    if (gamma_cdf(width, static_cast<double>(hi) * k, theta) < kTailEps) {
      while (lo < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (gamma_cdf(width, static_cast<double>(mid) * k, theta) < kTailEps) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      n_stop = lo;
    }
  }
  grid.n_stop = n_stop;

  // Quadrature mass of Σ_{n=1}^{n_stop} pₙ, via the telescoped form
  // ∫ f_e(u)·Q(n_stop·k, x) du — one gamma per node instead of n_stop.
  std::vector<double> contrib(n_nodes);
  const double a_stop = static_cast<double>(n_stop) * k;
  for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      contrib[j] = fw[j] * gamma_q(a_stop, xs[j]);
    }
  });
  const double mass_tail = sum_in_node_order(contrib);
  grid.mass_tail = mass_tail;
  grid.total = grid.p0 + mass_tail;
  CNY_ENSURE_MSG(std::fabs(grid.total - 1.0) < 1e-6,
                 "count PMF mass deviates from 1: quadrature failure");

  // Shape-stepping machinery (see pf_terms for how it is consumed).
  // Past x ≈ 650 the e^{-x} seed risks flushing to zero before the ladder
  // climbs out of the denormals, so wider windows fall back to plain
  // per-node gamma_q (still node-major + truncated).
  const long k_int = grid.k_int = std::lround(k);
  grid.prefactored = width / theta < kLadderMaxX;
  grid.ladder =
      std::fabs(k - static_cast<double>(k_int)) < 1e-9 && k_int >= 1 &&
      grid.prefactored;

  if (grid.prefactored) {
    grid.tau0.resize(n_nodes);
    if (!grid.ladder) grid.xk.resize(n_nodes);
    for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        grid.tau0[j] = std::exp(-xs[j]);
        if (!grid.ladder) grid.xk[j] = std::pow(xs[j], k);
      }
    });
    if (!grid.ladder) {
      double x_max = 0.0;
      for (const double x : xs) x_max = std::max(x_max, x);
      // Reciprocal table sized for the series' worst case, the slow decay
      // just below the x = a+1 split.
      grid.inv_len = static_cast<std::size_t>(16.0 * std::sqrt(x_max)) + 96;
    }
  }
  return grid;
}

/// Exact evaluations per backend (obs::Registry::global()): every term
/// loop is booked once, under the backend whose node bodies ran it.
obs::Counter& backend_widths(bool simd) {
  static auto& simd_widths =
      obs::Registry::global().counter("kernels.pf_simd_widths");
  static auto& scalar_widths =
      obs::Registry::global().counter("kernels.pf_scalar_widths");
  return simd ? simd_widths : scalar_widths;
}

/// The term loop over a prebuilt grid, with each term's node loop sharded
/// over `n_threads` and summed in node order. `pf_truncated` is pf_setup +
/// pf_terms.
PfKernelResult pf_terms(const PfGrid& grid, double z, double rel_tol,
                        unsigned n_threads) {
  const std::size_t n_nodes = grid.xs.size();
  const std::vector<double>& xs = grid.xs;
  const std::vector<double>& fw = grid.fw;
  const double k = grid.k;
  const long k_int = grid.k_int;
  const long n_stop = grid.n_stop;
  const double mass_tail = grid.mass_tail;

  // Both fast paths maintain the per-node ladder term
  // τ(a) = x^a e^{-x} / Γ(a+1), seeded at a = 0 (τ = e^{-x}):
  //  * integer k — the exact upward recurrence
  //      Q(a+1, x) = Q(a, x) + τ(a)
  //    stepped k times per PMF term; each per-n increment is an
  //    all-positive sum of ladder terms, so the PMF probabilities come out
  //    with no cancellation at all.
  //  * non-integer k — τ is stepped a → a+k in one multiply per node
  //    (τ ← τ · x^k · Γ(a+1)/Γ(a+k+1), the Γ-ratio shared across nodes)
  //    and seeds gamma_q_prefactored, which skips the per-call
  //    exp/log/lgamma prefactor and runs its series/continued fraction at
  //    a tolerance matched to the term's certified contribution budget.
  //
  // Each term's node loop runs sharded (for_node_chunks): a shard's node
  // body (scalar, or AVX2 four nodes per register) updates only its nodes'
  // τ / q slots, the shard then writes each node's contribution to
  // `contrib`, and the term is their node-order sum — so term, cum_mass,
  // acc, eps and the truncation point are the same bits at any n_threads
  // and on either backend. The gamma_q fallback is scalar only.
  const bool simd = grid.prefactored && kernels::simd_active();
  const NodeBodies body = node_bodies(simd);
  backend_widths(simd).add(1);
  std::vector<double> q_prev(n_nodes, 0.0);  // Q((n-1)k, x): Q(0,·) := 0
  std::vector<double> q(n_nodes);            // this term's Q(nk, x) or ΔQ
  std::vector<double> tau = grid.tau0;       // empty on the gamma_q path
  std::vector<double> inv_shape(grid.inv_len);
  std::vector<double> contrib(n_nodes);
  exec::LoopTeam team(n_threads);

  double acc = grid.p0;   // Σ_{m<n} pₘ z^m, raw quadrature values
  double cum_mass = 0.0;  // Σ_{1≤m<n} pₘ
  double zn = 1.0;        // z^(n-1)
  double shape = 0.0;     // ladder shape counter (n-1)·k
  double lg_prev = 0.0;   // lnΓ((n-1)·k + 1)
  long terms = 0;
  double rem_bound = 0.0;

  // Q(a_hi, x) − Q(a_hi − k, x) per node of [lo, hi), clipped at 0
  // (rounding can make adjacent Q values cross).
  const auto record_diffs = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const double diff = q[j] - q_prev[j];
      q_prev[j] = q[j];
      contrib[j] = diff > 0.0 ? fw[j] * diff : 0.0;
    }
  };

  for (long n = 1; n <= n_stop; ++n) {
    zn *= z;
    // Certified truncation: everything not yet accumulated is bounded by
    // z^n · Σ_{m≥n} pₘ, and the count tail is the unconsumed quadrature
    // mass. Checked before paying for term n.
    rem_bound = zn * std::max(0.0, mass_tail - cum_mass);
    if (rem_bound <= rel_tol * acc) break;

    if (grid.ladder) {
      for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
        body.ladder(xs.data(), tau.data(), q.data(), lo, hi, k_int, shape);
        for (std::size_t j = lo; j < hi; ++j) contrib[j] = fw[j] * q[j];
      });
      shape += static_cast<double>(k_int);
    } else {
      const double a_hi = static_cast<double>(n) * k;
      if (grid.prefactored) {
        // The iteration tolerance may relax as the term's certified
        // contribution budget z^n·tail shrinks relative to the
        // accumulated sum; an eps error on term n moves the result by
        // ≤ eps · rem_bound. Clamped: the floor is the fp resolution,
        // the cap keeps relaxed terms honest.
        double eps = acc > 0.0 ? rel_tol * acc / rem_bound : 1e-15;
        eps = std::clamp(eps, 1e-15, 1e-6);
        const double lg_cur = numeric::log_gamma(a_hi + 1.0);
        const double rho = std::exp(lg_prev - lg_cur);
        lg_prev = lg_cur;
        // This term's series denominators, shared by every node.
        for (std::size_t i = 1; i < inv_shape.size(); ++i) {
          inv_shape[i] = 1.0 / (a_hi + static_cast<double>(i));
        }
        for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
          body.prefactored(xs.data(), grid.xk.data(), tau.data(), q.data(),
                           lo, hi, a_hi, rho, eps, inv_shape.data(),
                           inv_shape.size());
          record_diffs(lo, hi);
        });
      } else {
        for_node_chunks(team, n_nodes, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) q[j] = gamma_q(a_hi, xs[j]);
          record_diffs(lo, hi);
        });
      }
    }
    const double term = std::max(0.0, sum_in_node_order(contrib));
    cum_mass += term;
    acc += term * zn;
    ++terms;
  }
  if (terms == n_stop) {
    // Ran the full support (z near 1): the certified remainder is whatever
    // quadrature mass the telescoped sum left behind, at the next z power.
    rem_bound = zn * z * std::max(0.0, mass_tail - cum_mass);
  }

  return {acc / grid.total, terms, rem_bound / grid.total};
}

}  // namespace

PfKernelResult pf_truncated(const PitchModel& pitch, double width, double z,
                            double rel_tol, unsigned n_threads) {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  CNY_EXPECT(rel_tol > 0.0);
  if (width == 0.0) return {1.0, 0, 0.0};  // N ≡ 0, G ≡ 1
  if (z == 1.0) return {1.0, 0, 0.0};      // G(1) = total mass / total mass

  return pf_terms(pf_setup(pitch, width, n_threads), z, rel_tol, n_threads);
}

}  // namespace cny::cnt
