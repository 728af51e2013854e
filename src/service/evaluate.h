// The evaluation core: one session-key group of FlowRequests in, one
// outcome per request out. YieldServer (which adds deadline shedding,
// framing and counters) and the campaign runner's direct path both call
// it, so a response and a direct-path store record carry the same bytes by
// construction. Failures are per request, so one bad request never
// poisons its group, and no outcome depends on the group's size or on
// `n_threads`.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/session_cache.h"

namespace cny::service {

/// One request's result: `result_json` (to_json(FlowResult).dump()) on
/// success, else an error code and message and an empty `result_json`.
struct RequestOutcome {
  std::string result_json;
  std::string error_code;
  std::string error_message;
};

/// Measurement hooks, all nullable and never behaviour: "evaluate" /
/// "serialize" spans (carrying each request's trace_id) on `trace`, and the
/// wall time of each run_flow / serialisation on the two histograms.
struct EvaluateObservers {
  obs::TraceSink* trace = nullptr;
  obs::Histogram* evaluate_us = nullptr;
  obs::Histogram* serialize_us = nullptr;
};

/// Evaluates `requests`, which must all share one session_key(), on
/// `cache`'s warm session with `n_threads` compute threads (0 = hardware
/// concurrency). Outcome i belongs to requests[i].
[[nodiscard]] std::vector<RequestOutcome> evaluate_group(
    SessionCache& cache, const std::vector<const FlowRequest*>& requests,
    unsigned n_threads, const EvaluateObservers& observers = {});

}  // namespace cny::service
