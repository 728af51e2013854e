#include "kernels/pf_batch.h"

#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::kernels {

std::vector<cnt::PfKernelResult> pf_truncated_batch(
    const cnt::PitchModel& pitch, std::span<const double> widths, double z,
    double rel_tol) {
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  CNY_EXPECT(rel_tol > 0.0);
  for (const double w : widths) CNY_EXPECT(w >= 0.0);

  std::vector<cnt::PfKernelResult> out;
  if (widths.empty()) return out;
  // Batch-volume accounting (obs::Registry::global()); which backend ran
  // each width is booked by the kernel itself (kernels.pf_simd_widths /
  // kernels.pf_scalar_widths).
  static auto& calls =
      obs::Registry::global().counter("kernels.pf_batch_calls");
  static auto& batch_widths =
      obs::Registry::global().counter("kernels.pf_batch_widths");
  calls.add(1);
  batch_widths.add(widths.size());
  out.reserve(widths.size());
  for (const double w : widths) {
    out.push_back(cnt::pf_truncated(pitch, w, z, rel_tol));
  }
  return out;
}

}  // namespace cny::kernels
