// Scenario-engine benchmarks: what each mechanism adds to a single flow,
// and how a removal-frontier sweep batches.
//
//   BM_FlowOpenOnly        — the open-only baseline (empty ScenarioSpec)
//   BM_FlowShorts          — + combined open x short W_min fixpoint and the
//                            per-strategy required-p_Rm bisections
//   BM_FlowAllMechanisms   — shorts + finite length + removal frontier
//   BM_FrontierBatchShared — 4-point removal sweep, one yield::warm_model
//                            (model + table) per derived corner
//   BM_FrontierBatchCold   — the same sweep on exact p_F, each flow
//                            rebuilding its corner: what sharing saves
//
// NOTE: the checked-in baseline was recorded on a 1-core container (see
// bench/baselines/README.md), so the batch entries measure kernel cost, not
// parallel speedup.
#include <benchmark/benchmark.h>

#include "celllib/generator.h"
#include "device/failure_model.h"
#include "netlist/design_generator.h"
#include "scenario/engine.h"
#include "yield/flow.h"

namespace {

using namespace cny;

/// Small MC budget: these benches time the scenario machinery, not the MC.
constexpr std::size_t kMcSamples = 600;

const celllib::Library& library() {
  static const celllib::Library lib = celllib::make_nangate45_like();
  return lib;
}

const netlist::Design& design() {
  static const netlist::Design d = netlist::make_openrisc_like(library());
  return d;
}

const device::FailureModel& model() {
  static const device::FailureModel m(cnt::PitchModel(4.0, 0.9),
                                      cnt::fig21_worst());
  return m;
}

yield::FlowParams flow_params() {
  yield::FlowParams params;
  params.mc_samples = kMcSamples;
  params.n_threads = 1;
  return params;
}

void BM_FlowOpenOnly(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), flow_params()));
  }
}
BENCHMARK(BM_FlowOpenOnly)->Unit(benchmark::kMillisecond);

void BM_FlowShorts(benchmark::State& state) {
  auto params = flow_params();
  params.scenario.shorts = scenario::ShortFailure{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), params));
  }
}
BENCHMARK(BM_FlowShorts)->Unit(benchmark::kMillisecond);

void BM_FlowAllMechanisms(benchmark::State& state) {
  auto params = flow_params();
  // Composition: the removal target supersedes the shorts block's p_Rm, so
  // it must sit above the short mode's ~1-1e-8 floor for 1e8 transistors
  // (at a 0.1 % noise budget) while its earned p_Rs stays solvable.
  params.scenario.shorts = scenario::ShortFailure{1.0, 0.001};
  params.scenario.length = scenario::FiniteLength{150.0e3, 0.3, 16};
  params.scenario.removal = scenario::RemovalFrontier{6.0, 0.99999999};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::run_flow(library(), design(), model(), params));
  }
}
BENCHMARK(BM_FlowAllMechanisms)->Unit(benchmark::kMillisecond);

/// Yield targets per removal corner in frontier_jobs().
constexpr std::size_t kYieldTargets = 2;

std::vector<yield::FlowParams> frontier_jobs() {
  // 4 removal targets -> 4 distinct derived corners (feasible across the
  // sweep at selectivity 6), each evaluated at kYieldTargets yield targets
  // (corner-major) — the shape of coalesced sweep traffic, where
  // per-corner table sharing pays.
  std::vector<yield::FlowParams> jobs;
  for (const double p_rm : {0.99, 0.999, 0.9999, 0.99999}) {
    for (const double yield_target : {0.85, 0.90}) {
      auto params = flow_params();
      params.yield_desired = yield_target;
      params.scenario.removal = scenario::RemovalFrontier{6.0, p_rm};
      jobs.push_back(params);
    }
  }
  return jobs;
}

void BM_FrontierBatchShared(benchmark::State& state) {
  const auto jobs = frontier_jobs();
  std::vector<yield::FlowResult> results(jobs.size());
  for (auto _ : state) {
    for (std::size_t c = 0; c < jobs.size(); c += kYieldTargets) {
      const auto warm = yield::warm_model(model(), jobs[c].scenario, 65, 1);
      for (std::size_t j = c; j < c + kYieldTargets; ++j) {
        results[j] = yield::run_flow(library(), design(), warm, jobs[j]);
      }
    }
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FrontierBatchShared)->Unit(benchmark::kMillisecond);

void BM_FrontierBatchCold(benchmark::State& state) {
  const auto jobs = frontier_jobs();
  std::vector<yield::FlowResult> results(jobs.size());
  for (auto _ : state) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      results[j] = yield::run_flow(library(), design(), model(), jobs[j]);
    }
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FrontierBatchCold)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
