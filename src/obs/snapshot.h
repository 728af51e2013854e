// Time-series snapshots: one timestamped MetricsSnapshot and its JSONL
// rendering — the line format of the resource sampler's export file
// (`serve --snapshot-file`). A reader computes rates between any two
// lines; the writer keeps no derived state.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace cny::obs {

/// One time-series entry: a metrics snapshot plus when it was taken, on
/// both clocks — wall time for humans/export, monotonic time for rate math
/// (wall time can step; rates must never see that).
struct TimedSnapshot {
  std::uint64_t wall_ms = 0;  ///< system_clock since epoch
  std::uint64_t mono_us = 0;  ///< steady_clock, the rate denominator
  MetricsSnapshot metrics;
};

/// Renders one TimedSnapshot as a self-contained JSON line
/// ({"wall_ms":..,"mono_us":..,"counters":{..},"gauges":{..}}) — the
/// JSONL export format (histograms are summarised by the stats payload
/// and /metrics; the time series carries the countable state).
[[nodiscard]] std::string snapshot_jsonl_line(const TimedSnapshot& snapshot);

}  // namespace cny::obs
