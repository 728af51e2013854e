// flow_cold: what every `cntyield_cli flow` user pays. Repeated
// single-design run_flow on the OpenRISC-like design at paper defaults,
// exact p_F on a fresh FailureModel per flow (no interpolant, no session
// cache, no service, no store), alternating 1 thread and all cores.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "celllib/generator.h"
#include "common.h"
#include "netlist/design_generator.h"
#include "util/strings.h"
#include "yield/flow.h"

namespace perfbench {

namespace {

using cny::yield::Strategy;

/// The paper-default summary table (158.9 / 128.4 / 99.65 / 105.2 nm).
/// The three Monte-Carlo-free strategies must match to the printed digits.
/// DirectionalOnly's W_min comes from the conditional MC, so it moves with
/// the MC seed (sd ~0.05 nm over seeds at 20000 samples); it must stay
/// within 0.5 nm of the printed value.
bool matches_paper_table(const cny::yield::FlowResult& r) {
  using cny::util::format_sig;
  return format_sig(r.get(Strategy::Uncorrelated).w_min, 4) == "158.9" &&
         std::abs(r.get(Strategy::DirectionalOnly).w_min - 128.4) <= 0.5 &&
         format_sig(r.get(Strategy::AlignedOneRow).w_min, 4) == "99.65" &&
         format_sig(r.get(Strategy::AlignedTwoRows).w_min, 4) == "105.2";
}

struct Phase {
  std::vector<double> all_ms;  ///< flows on all cores
  std::vector<double> t1_ms;   ///< flows on 1 thread
  std::vector<double> gap_ms;  ///< harness time between consecutive flows
};

/// Runs flows for `seconds`, alternating thread counts (which comes first
/// is drawn from the seed), and checks every result is bit-identical to
/// the first one and to the paper table. `traced` wraps each flow in a
/// span and runs all-core flows only. `between` runs before every flow but
/// the first, outside the flow and gap timings.
Phase run_flows(const cny::celllib::Library& lib,
                const cny::netlist::Design& design,
                const cny::service::FlowRequest& request, double seconds,
                std::uint64_t seed, bool traced, std::string& reference,
                Report& report, const std::function<void()>& between) {
  Phase phase;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  auto last_end = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const bool one_thread = !traced && (i + seed) % 2 == 0;
    if (Clock::now() >= deadline && phase.all_ms.size() >= 3 &&
        (traced || phase.t1_ms.size() >= 3)) {
      break;
    }
    if (i > 0) {
      const auto paused = Clock::now();
      between();
      last_end += Clock::now() - paused;
    }
    cny::yield::FlowParams params = request.params;
    params.n_threads = one_thread ? 1 : 0;
    const auto t0 = Clock::now();
    if (i > 0) phase.gap_ms.push_back(ms_between(last_end, t0));
    std::string bytes;
    try {
      Span span("yield.run_flow");
      const auto model = cold_model(request.process);
      const auto result = cny::yield::run_flow(lib, design, model, params);
      last_end = Clock::now();
      (one_thread ? phase.t1_ms : phase.all_ms).push_back(
          ms_between(t0, last_end));
      bytes = cny::service::to_json(result).dump();
      if (reference.empty()) {
        reference = bytes;
        report.check(matches_paper_table(result),
                     "flow result does not match the paper-default table");
      }
    } catch (const std::exception& e) {
      report.op(false, std::string("run_flow threw: ") + e.what());
      continue;
    }
    report.op(bytes == reference,
              "flow result differs from the first flow (threads=" +
                  std::to_string(params.n_threads) + ")");
  }
  return phase;
}

}  // namespace

void run_flow_cold(const Options& opts, Report& report) {
  cny::service::FlowRequest request = paper_request();
  request.params.mc_samples =
      static_cast<std::size_t>(cfg_num(opts.config, "mc_samples"));
  request.params.seed = opts.seed;
  report.input("mc_samples", static_cast<double>(request.params.mc_samples));
  report.input("mc_seed", static_cast<double>(opts.seed));
  report.input("corners", 1);

  // Set-up is what a CLI flow builds before its first p_F call: the
  // generated library and the design. A set-up is well under a
  // millisecond and the host's speed drifts over tenths of a second, so
  // set-ups are timed in short bursts, one before the flows and one
  // between consecutive untraced flows; setup_s is their median.
  std::vector<double> setup_samples;
  const int burst = static_cast<int>(cfg_num(opts.config, "setup_burst"));
  const auto set_up_burst = [&] {
    for (int i = 0; i < burst; ++i) {
      const auto t0 = Clock::now();
      {
        const auto lib = std::make_unique<cny::celllib::Library>(
            cny::celllib::make_nangate45_like());
        const auto design = std::make_unique<cny::netlist::Design>(
            cny::netlist::make_openrisc_like(*lib));
      }
      setup_samples.push_back(ms_since(t0));
    }
  };
  set_up_burst();
  const auto lib = std::make_unique<cny::celllib::Library>(
      cny::celllib::make_nangate45_like());
  const auto design = std::make_unique<cny::netlist::Design>(
      cny::netlist::make_openrisc_like(*lib));

  const double measured = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::string reference;
  const Phase phase = run_flows(*lib, *design, request, measured, opts.seed,
                                false, reference, report, set_up_burst);
  const double setup_ms = median(setup_samples);
  const double flow_ms = median(phase.all_ms);
  const double flow_t1_ms = median(phase.t1_ms);

  report.e2e("setup_s", setup_ms / 1000.0, "s");
  report.e2e("throughput_per_s", 1000.0 / flow_ms, "1/s");
  report.e2e("latency_ms", flow_ms, "ms");
  report.e2e("latency_ms.base", flow_t1_ms, "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.named("flow_s", flow_ms / 1000.0, "s");
  report.named("flow_s.t1", flow_t1_ms / 1000.0, "s");
  report.input("flows.all_cores", static_cast<double>(phase.all_ms.size()));
  report.input("flows.t1", static_cast<double>(phase.t1_ms.size()));
  report.input("setups", static_cast<double>(setup_samples.size()));
  if (!opts.trace) return;

  // Closed loop: the harness issues each flow as the previous one returns,
  // so its lateness is the gap between them. Every flow repeats the first.
  const double flows = static_cast<double>(phase.all_ms.size() +
                                           phase.t1_ms.size());
  report.layer("gen.late_ms.p99", quantile(phase.gap_ms, 0.99), "ms");
  report.layer("gen.late_ms.max",
               *std::max_element(phase.gap_ms.begin(), phase.gap_ms.end()),
               "ms");
  report.layer("serve.dup_share", (flows - 1.0) / flows, "ratio");
  report.layer("session.sessions_built", 0.0, "count");  // bypassed

  Tracer::get().enable(true);
  const Phase traced = run_flows(*lib, *design, request, opts.seconds / 2,
                                 opts.seed, true, reference, report, [] {});
  Tracer::get().enable(false);
  const double traced_ms = median(traced.all_ms);
  report.layer("trace.overhead_pct", 100.0 * (traced_ms - flow_ms) / flow_ms,
               "%");

  ProbeInputs inputs;
  inputs.requests = {request};
  inputs.cold = true;
  inputs.flow_wall_ms = flow_ms;
  probe_layers(opts, inputs, report);
}

}  // namespace perfbench
