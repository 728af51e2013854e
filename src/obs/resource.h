// Resource accounting: what the process itself costs, read from
// /proc/self/{status,stat,fd} — resident set size, its high-water mark,
// accumulated CPU time, thread and descriptor counts.
//
// Two layers:
//   * sample_resources() — one synchronous sample. Pure observation (three
//     /proc reads, no allocation beyond the result), safe to call from any
//     thread at any time; `ok` is false on platforms without /proc, and
//     every field stays zero, so callers never branch on platform.
//   * ResourceSampler — a background thread sampling on a fixed interval
//     into `process.*` gauges of a Registry (so the stats payload and the
//     /metrics endpoint surface memory/CPU without any caller plumbing)
//     and, optionally, appending a timestamped MetricsSnapshot as one
//     JSONL export line per tick — the continuous-telemetry time series.
//
// Like every obs facility, this is observability plumbing, never
// semantics: nothing in the library branches on a sampled value, so a
// running sampler cannot move a response or store byte (pinned in
// tests/test_service.cpp and test_campaign.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace cny::obs {

/// One point-in-time reading of the process's own footprint. All sizes in
/// kB (the unit /proc/self/status reports), CPU in milliseconds.
struct ResourceUsage {
  std::uint64_t rss_kb = 0;       ///< VmRSS: current resident set
  std::uint64_t vm_hwm_kb = 0;    ///< VmHWM: peak resident set ("high water")
  std::uint64_t cpu_user_ms = 0;  ///< utime, accumulated over the process
  std::uint64_t cpu_sys_ms = 0;   ///< stime, accumulated over the process
  std::uint64_t threads = 0;      ///< Threads: live thread count
  std::uint64_t open_fds = 0;     ///< open descriptors (/proc/self/fd)
  bool ok = false;                ///< false when /proc was unreadable
};

/// Samples the calling process once. Never throws; on failure returns a
/// zeroed reading with ok == false.
[[nodiscard]] ResourceUsage sample_resources();

/// Parses /proc/self/status-shaped text ("VmRSS:\t  123 kB" lines) into
/// `usage` (VmRSS, VmHWM, Threads). Split out so the parser is testable
/// against synthetic text without a live /proc.
void parse_status_text(std::string_view text, ResourceUsage& usage);

/// Parses /proc/self/stat-shaped text (fields after the parenthesised
/// comm, which may itself contain spaces and parentheses) into `usage`
/// (utime + stime, converted with `ticks_per_s`).
void parse_stat_text(std::string_view text, long ticks_per_s,
                     ResourceUsage& usage);

/// Background resource sampler. Construction registers the `process.*`
/// gauges and starts the thread; destruction (or stop()) joins it. The
/// thread waits on a condition variable, so stop() returns within one
/// wakeup regardless of the interval.
class ResourceSampler {
 public:
  struct Options {
    /// Milliseconds between samples. Clamped to >= 1.
    unsigned interval_ms = 1000;
    /// Where the process.{rss_kb,vm_hwm_kb,cpu_user_ms,cpu_sys_ms,
    /// threads,open_fds} gauges live. Null = Registry::global(), which is
    /// what makes them appear in every stats payload's "process" block.
    Registry* registry = nullptr;
    /// What each export line carries (typically a server registry's
    /// snapshot). Null = snapshot the gauge registry itself.
    std::function<MetricsSnapshot()> snapshot_source;
    /// When non-empty, each tick also appends one self-contained JSONL
    /// line ({"wall_ms","mono_us","counters","gauges"}) of
    /// snapshot_source() here, flushed immediately — a killed run keeps
    /// every complete line.
    std::string export_path;
  };

  explicit ResourceSampler(Options options);
  ~ResourceSampler();
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Takes one sample synchronously (the same work a tick does) — how
  /// tests drive the sampler deterministically.
  void sample_now();

  /// Stops and joins the thread. Idempotent; the destructor calls it.
  void stop();

 private:
  void run();
  void tick();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Refreshes the process.* resource gauges of `registry` (null = global)
/// from one synchronous sample — what stats_payload() and the /metrics
/// handler call so RSS is current even without a background sampler.
void refresh_resource_gauges(Registry* registry = nullptr);

}  // namespace cny::obs
