// Kernel-backend dispatch seam.
//
// The hot kernels (the node bodies of the exact p_F term loop, MC
// thinning, window checks) have one scalar reference implementation and,
// when the tree is built with -DCNY_SIMD=ON, an AVX2 implementation
// selected at runtime — for p_F once per cnt::pf_truncated call, which
// then runs four quadrature nodes per register. Selection rules, in
// order:
//
//   1. `CNY_SIMD=OFF` at configure time — the AVX2 objects are not even
//      compiled; every query reports the scalar backend.
//   2. The CPU lacks AVX2 (CPUID probe, cached) — scalar.
//   3. The process requested scalar (`set_simd_mode(SimdMode::Off)`, the
//      CLI's `--simd=off`) — scalar.
//   4. Otherwise — AVX2.
//
// The contract that makes this a *dispatch* seam rather than a numerical
// fork: every backend of every kernel is bit-identical to the scalar
// reference (pinned in tests/test_kernels.cpp), so the mode is purely a
// speed knob — results never depend on it, the same way MC results never
// depend on thread count. See docs/architecture.md, "Kernel backends".
#pragma once

namespace cny::kernels {

enum class SimdMode {
  Auto,  ///< use the best backend the build + CPU supports (default)
  Off,   ///< force the scalar reference backend
};

/// Process-wide mode switch (atomic; normally set once at startup from the
/// CLI's --simd flag, before any kernel runs).
void set_simd_mode(SimdMode mode);
[[nodiscard]] SimdMode simd_mode();

/// True when the AVX2 backend was compiled in (CNY_SIMD=ON).
[[nodiscard]] bool simd_compiled();

/// True when the AVX2 backend is compiled in AND this CPU supports AVX2.
[[nodiscard]] bool simd_supported();

/// True when the next kernel call will take the AVX2 path: compiled,
/// supported, and not switched off.
[[nodiscard]] bool simd_active();

/// "avx2" or "scalar" — the backend simd_active() resolves to right now.
[[nodiscard]] const char* backend_name();

}  // namespace cny::kernels
