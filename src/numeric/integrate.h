// One-dimensional quadrature: fixed-order Gauss–Legendre panels (the smooth
// renewal-equation kernels of the CNT count model).
#pragma once

#include <array>
#include <functional>

namespace cny::numeric {

/// Composite 16-point Gauss–Legendre over `panels` equal sub-intervals.
/// Exact for polynomials of degree <= 31 per panel; ideal for the smooth
/// Gamma-kernel integrals in the CNT count model.
[[nodiscard]] double integrate_gl(const std::function<double(double)>& f,
                                  double a, double b, int panels = 8);

/// The 16-point rule behind integrate_gl: nodes/weights of the positive half
/// of [-1, 1] (the full rule mirrors them about 0). Exposed so node-major
/// kernels (cnt/pf_kernel.h) can evaluate on integrate_gl's exact grid while
/// caching per-node state across many integrands.
[[nodiscard]] const std::array<double, 8>& gl16_nodes();
[[nodiscard]] const std::array<double, 8>& gl16_weights();

}  // namespace cny::numeric
