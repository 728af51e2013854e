// Prints the all-strategies summary (the synthesis of Table 1 + Fig 3.3),
// then benchmarks the end-to-end flow.
#include <benchmark/benchmark.h>

#include <iostream>

#include "celllib/generator.h"
#include "exec/thread_pool.h"
#include "experiments/flow_summary.h"
#include "netlist/design_generator.h"
#include "obs/resource.h"
#include "yield/flow.h"

namespace {

// Records the process memory high-water mark (and current RSS) as user
// counters on the benchmark, so baseline JSONs carry a memory figure next
// to the time. VmHWM is process-wide and monotone, so on a multi-benchmark
// binary each entry reports "the peak so far" — comparable across
// recordings of the same binary (registration order is fixed), and an
// upper bound per benchmark either way.
void record_memory(benchmark::State& state) {
  const cny::obs::ResourceUsage usage = cny::obs::sample_resources();
  if (!usage.ok) return;
  state.counters["vm_hwm_kb"] = static_cast<double>(usage.vm_hwm_kb);
  state.counters["rss_kb"] = static_cast<double>(usage.rss_kb);
}

void BM_FullYieldFlow(benchmark::State& state) {
  const cny::experiments::PaperParams params;
  for (auto _ : state) {
    const auto res = cny::experiments::run_flow_summary(params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_FullYieldFlow)->Unit(benchmark::kMillisecond);

// Arg = thread count at a fixed stream count: every arg computes the
// identical numbers, so the curve is the pure scheduling speedup, timed in
// wall-clock (UseRealTime) since the helper threads do most of the work.
void BM_FullYieldFlowThreads(benchmark::State& state) {
  cny::experiments::PaperParams params;
  params.n_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto res = cny::experiments::run_flow_summary(params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_FullYieldFlowThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The batch shape: a 3-point yield-target sweep run concurrently on one
// model — Arg 1 shares one p_F(W) interpolant (yield::warm_model), Arg 0
// evaluates every p_F exactly.
void BM_FlowBatchSweep(benchmark::State& state) {
  static const cny::celllib::Library lib = cny::celllib::make_nangate45_like();
  static const cny::netlist::Design design =
      cny::netlist::make_openrisc_like(lib);
  const cny::experiments::PaperParams paper;
  std::vector<cny::yield::FlowParams> jobs;
  for (double y : {0.80, 0.90, 0.95}) {
    cny::yield::FlowParams params;
    params.yield_desired = y;
    jobs.push_back(params);
  }
  std::vector<cny::yield::FlowResult> results(jobs.size());
  for (auto _ : state) {
    // Fresh model per iteration: measure the cold cost a new process/param
    // set pays, not replays against an already-warm memo cache.
    state.PauseTiming();
    const auto cold_model = paper.failure_model();
    state.ResumeTiming();
    const auto model = state.range(0) != 0
                           ? cny::yield::warm_model(cold_model, {}, 65, 0)
                           : cny::device::FailureModel(cold_model);
    cny::exec::parallel_for(jobs.size(), 0, [&](std::size_t i) {
      results[i] = cny::yield::run_flow(lib, design, model, jobs[i]);
    });
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
  record_memory(state);
}
BENCHMARK(BM_FlowBatchSweep)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Single-design run_flow: Arg 0 = exact p_F per solver query, Arg 1 = a
// 65-knot yield::warm_model table, whose knots the flow's solves fill on
// first use and then read from the snapshot.
void BM_SingleFlowInterpolant(benchmark::State& state) {
  static const cny::celllib::Library lib = cny::celllib::make_nangate45_like();
  static const cny::netlist::Design design =
      cny::netlist::make_openrisc_like(lib);
  const cny::experiments::PaperParams paper;
  const cny::yield::FlowParams params;
  for (auto _ : state) {
    // Fresh model per iteration: measure the cold cost a new process/param
    // set pays, not replays against an already-warm memo cache.
    state.PauseTiming();
    const auto cold_model = paper.failure_model();
    state.ResumeTiming();
    const auto model = state.range(0) != 0
                           ? cny::yield::warm_model(cold_model, {}, 65, 0)
                           : cny::device::FailureModel(cold_model);
    const auto res = cny::yield::run_flow(lib, design, model, params);
    benchmark::DoNotOptimize(res.strategies.size());
  }
  record_memory(state);
}
BENCHMARK(BM_SingleFlowInterpolant)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const cny::experiments::PaperParams params;
  std::cout << cny::experiments::report_flow_summary(params).render_text()
            << std::endl;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
