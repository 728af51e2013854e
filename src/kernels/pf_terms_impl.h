// Internal seam between the truncated-PGF term loop (cnt/pf_kernel.cpp,
// baseline ISA) and its AVX2 node-lane bodies (pf_terms_avx2.cpp, compiled
// with -mavx2 -mno-fma -ffp-contract=off). Each function has a scalar twin
// of the same signature in cnt/pf_kernel.cpp and writes the same bits into
// the same node-indexed slots; pf_terms picks one set per call from
// kernels::simd_active(). Everything outside the node slots — grid setup,
// the diff clip, contributions and the node-order sums — stays in the
// scalar translation unit. Not a public header.
#pragma once

#include <cstddef>

namespace cny::kernels::detail {

#if defined(CNY_SIMD)
/// Integer-shape ladder over nodes [lo, hi): k_int upward steps of the
/// per-node ladder term τ from `shape`. Writes the stepped τ back and
/// dq[j] = the sum of the k_int ladder terms (ΔQ for this PMF term).
void pf_ladder_nodes_avx2(const double* xs, double* tau, double* dq,
                          std::size_t lo, std::size_t hi, long k_int,
                          double shape);

/// Non-integer prefactored step over nodes [lo, hi): τ[j] *= x^k[j]·ρ,
/// then q[j] = Q(a, x_j) — the table-backed series (inv[1..inv_len)) when
/// x < a+1, the Lentz continued fraction otherwise — at tolerance eps.
void pf_prefactored_nodes_avx2(const double* xs, const double* xk,
                               double* tau, double* q, std::size_t lo,
                               std::size_t hi, double a, double rho,
                               double eps, const double* inv,
                               std::size_t inv_len);
#endif

}  // namespace cny::kernels::detail
