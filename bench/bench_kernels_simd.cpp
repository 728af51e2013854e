// Scalar-vs-SIMD baselines for the kernel-backend layer (src/kernels/).
// Every benchmark here runs the same calls in both modes; a flag this
// binary parses before Google Benchmark sees argv picks the dispatch:
//
//   --mode=looped    SIMD dispatch forced off (the scalar term loop)
//   --mode=batched   (default) SIMD dispatch on auto (node-lane term loop)
//
// Recording the same binary in both modes and diffing the JSONs with
// tools/bench_compare.py measures exactly the SIMD win while holding the
// benchmark harness and call shape constant; CI gates the interpolant
// build, the Fig 2.1 sweep and the single-width solve step (looped/batched
// ratio floors in .github/workflows/ci.yml). Results are bit-identical
// across modes (tests/test_kernels.cpp), so the diff is pure speed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cnt/pf_kernel.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "device/failure_model.h"
#include "geom/interval.h"
#include "kernels/dispatch.h"
#include "kernels/mc_kernels.h"
#include "rng/engine.h"

namespace {

using namespace cny;

/// One exact kernel call per width.
std::vector<double> eval_widths(const cnt::PitchModel& pitch,
                                const std::vector<double>& widths, double z) {
  std::vector<double> out;
  out.reserve(widths.size());
  for (double w : widths) out.push_back(cnt::pf_truncated(pitch, w, z).value);
  return out;
}

// --- headline 1: the interpolant build --------------------------------------
// 65 exact kernel evaluations over the solver bracket — the dominant
// fixed cost of every interpolated flow, timed on the real
// FailureModel::enable_interpolation path (one thread).
void BM_InterpolantBuild(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const auto proc = cnt::fig21_mid();
  for (auto _ : state) {
    const device::FailureModel model(pitch, proc);
    model.enable_interpolation(4.0, 400.0, 65, 1);
    benchmark::DoNotOptimize(model.interpolation_covers(155.0));
  }
}
BENCHMARK(BM_InterpolantBuild)->Unit(benchmark::kMillisecond);

// --- headline 2: the Fig 2.1 sweep grid -------------------------------------
// The experiment's exact evaluation set: widths 20..180 nm under all three
// processing conditions (41 widths x 3 corners = 123 kernel evaluations).
void BM_Fig21Sweep(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  std::vector<double> widths;
  for (double w = 20.0; w <= 180.0; w += 4.0) widths.push_back(w);
  const cnt::ProcessParams procs[] = {cnt::fig21_worst(), cnt::fig21_mid(),
                                      cnt::fig21_ideal()};
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& proc : procs) {
      for (double v : eval_widths(pitch, widths, proc.p_fail())) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_Fig21Sweep)->Unit(benchmark::kMillisecond);

// Four coherent wide widths — a width-lane packet in the kernel's earlier
// design, kept as the large-W per-width cost.
void BM_PfPacketWide(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const std::vector<double> widths = {440.0, 480.0, 520.0, 560.0};
  const double z = cnt::fig21_mid().p_fail();
  for (auto _ : state) {
    double sum = 0.0;
    for (double v : eval_widths(pitch, widths, z)) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PfPacketWide)->Unit(benchmark::kMillisecond);

// --- headline 3: one W_min solve step ---------------------------------------
// A single exact evaluation at the paper's W_min (158.9 nm, worst-case
// corner), one thread: what each Brent step of the cold flow pays. The
// mode only toggles the SIMD dispatch — node lanes vs the scalar loop.
void BM_PfSingleWidth(benchmark::State& state) {
  const cnt::PitchModel pitch(4.0, 0.9);
  const double z = cnt::fig21_worst().p_fail();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnt::pf_truncated(pitch, 158.9, z).value);
  }
}
BENCHMARK(BM_PfSingleWidth)->Unit(benchmark::kMillisecond);

// --- MC post-draw kernels ---------------------------------------------------
// Thinning and the sorted-window check run once per simulated device; the
// mode toggles the dispatch seam (scalar reference vs AVX2), the call
// shape is the same either way.

void BM_ThinFunctional(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256 rng(11);
  std::vector<double> ys(n), us(n);
  for (std::size_t i = 0; i < n; ++i) {
    ys[i] = static_cast<double>(i) * 4.0;
    us[i] = rng.uniform();
  }
  std::vector<double> out;
  for (auto _ : state) {
    kernels::thin_functional(ys, us, 0.33, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ThinFunctional)->Arg(256)->Arg(4096);

void BM_WindowSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> points(n);
  for (std::size_t i = 0; i < n; ++i) points[i] = static_cast<double>(i);
  std::vector<geom::Interval> windows;
  for (std::size_t k = 0; k < 64; ++k) {
    const double lo = static_cast<double>(k * (n / 64));
    windows.push_back({lo + 0.25, lo + 0.75});  // between points: occupied
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::any_window_empty_sorted(points, windows));
  }
}
BENCHMARK(BM_WindowSweep)->Arg(4096);

}  // namespace

// Custom main: strip --mode= (ours) before benchmark::Initialize rejects
// it, set the dispatch seam accordingly, then run as usual.
int main(int argc, char** argv) {
  int kept = 1;
  const char* mode_name = "batched";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      const std::string mode = arg.substr(7);
      if (mode == "looped") {
        mode_name = "looped";
        cny::kernels::set_simd_mode(cny::kernels::SimdMode::Off);
      } else if (mode == "batched") {
        mode_name = "batched";
        cny::kernels::set_simd_mode(cny::kernels::SimdMode::Auto);
      } else {
        std::fprintf(stderr, "--mode must be 'looped' or 'batched'\n");
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  std::printf("mode: %s, backend: %s\n", mode_name,
              cny::kernels::backend_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
