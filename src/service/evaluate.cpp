#include "service/evaluate.h"

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>

#include "exec/thread_pool.h"
#include "netlist/design.h"
#include "yield/flow.h"

namespace cny::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Microseconds since `t0` into `histogram`, when one is attached.
void observe_since(obs::Histogram* histogram, Clock::time_point t0) {
  if (histogram == nullptr) return;
  histogram->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count()));
}

}  // namespace

std::vector<RequestOutcome> evaluate_group(
    SessionCache& cache, const std::vector<const FlowRequest*>& requests,
    unsigned n_threads, const EvaluateObservers& observers) {
  std::vector<RequestOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;
  std::shared_ptr<const Session> session;
  try {
    session = cache.acquire(session_key(*requests.front()));
  } catch (const std::exception& e) {
    for (RequestOutcome& outcome : outcomes) {
      outcome = {"", "internal_error", e.what()};
    }
    return outcomes;
  }
  // Shared design handles pin every job's design for the duration of the
  // group, across the session's own design-cache eviction.
  std::vector<std::shared_ptr<const netlist::Design>> designs(
      requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      designs[i] = session->design(requests[i]->design_instances);
    } catch (const std::exception& e) {
      outcomes[i] = {"", "internal_error", e.what()};
    }
  }
  // Job-indexed slots: scheduling cannot change any outcome.
  exec::parallel_for(requests.size(), n_threads, [&](std::size_t i) {
    if (designs[i] == nullptr) return;
    const FlowRequest& request = *requests[i];
    yield::FlowParams params = request.params;
    // Scheduling knob of the caller; invariant on the results.
    params.n_threads = n_threads;
    try {
      yield::FlowResult result;
      {
        obs::Span span(observers.trace, "evaluate", "service");
        if (!request.trace_id.empty()) span.arg("trace_id", request.trace_id);
        const auto t0 = Clock::now();
        result = yield::run_flow(session->library(), *designs[i],
                                 session->model(), params);
        observe_since(observers.evaluate_us, t0);
      }
      obs::Span span(observers.trace, "serialize", "service");
      if (!request.trace_id.empty()) span.arg("trace_id", request.trace_id);
      const auto s0 = Clock::now();
      outcomes[i].result_json = to_json(result).dump();
      observe_since(observers.serialize_us, s0);
    } catch (const std::exception& e) {
      outcomes[i] = {"", "evaluation_failed", e.what()};
    }
  });
  return outcomes;
}

}  // namespace cny::service
