// Batch-of-widths p_F evaluation.
//
// Several consumers of `cnt::pf_truncated` — the interpolant builder,
// circuit_yield's merged spectrum, the server's coalesced groups — ask for
// *many widths against one pitch model and one z*. `pf_truncated_batch`
// is their entry point: a plain per-width loop over `cnt::pf_truncated`,
// whose term loop already runs four quadrature nodes per AVX2 register
// when the SIMD backend is active (kernels/pf_terms_impl.h). Vectorising
// across nodes rather than widths serves a single width — every Brent
// step of the W_min solver — as well as a batch, so there is one term
// loop for every caller.
//
// Contract (pinned in tests/test_kernels.cpp): for every backend and
// every batch composition,
//
//   pf_truncated_batch(pitch, widths, z, tol)[i]
//     == pf_truncated(pitch, widths[i], z, tol)      (all three fields,
//                                                     exact bits)
//
// and pf_truncated itself is bit-identical across backends and thread
// counts, so batching, the SIMD mode and the thread count are all purely
// speed knobs.
#pragma once

#include <span>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pitch_model.h"

namespace cny::kernels {

/// Evaluates E[z^N(W)] for every width in `widths` (each >= 0, z in [0,1])
/// against one pitch model. Result i corresponds to widths[i] and is
/// bit-identical to cnt::pf_truncated(pitch, widths[i], z, rel_tol), which
/// it calls (one thread per width).
[[nodiscard]] std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol = cnt::kPfRelTol);

}  // namespace cny::kernels
