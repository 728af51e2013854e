// Structured tracing: monotonic-clock spans exported as Chrome
// trace-event JSONL (loadable in chrome://tracing and Perfetto, and
// aggregated offline by tools/trace_summary.py).
//
// A TraceSink owns one output file. Every event is a "complete" event
// (ph:"X") written as a single line, so a sink killed mid-run still yields
// a parseable file — the JSON array opener is written up front, each event
// line ends with a comma, and the closing "]" lands only on clean
// destruction (both trace viewers and trace_summary.py tolerate the
// unclosed form).
//
// A Span is the RAII front end: it captures the monotonic clock on
// construction and emits one complete event on destruction (or finish()).
// A Span built over a null sink is inert — one pointer test per call, the
// contract behind "tracing off costs nothing measurable". Timestamps are
// nanoseconds since the *sink's* origin (its construction instant), so all
// spans of one trace share a zero point regardless of thread.
//
// Compile-out: configuring with -DCNY_OBS=OFF defines CNY_NO_OBS and
// replaces Span/TraceSink with no-op stubs of identical shape — call sites
// build unchanged, the object code carries no tracing, and the
// zero-perturbation tests still pass (the spans were never allowed to
// influence results in the first place).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cny::obs {

/// True when this build carries the tracing implementation (CNY_OBS=ON).
[[nodiscard]] constexpr bool tracing_compiled() {
#if defined(CNY_NO_OBS)
  return false;
#else
  return true;
#endif
}

/// A fresh process-unique trace id: 16 lowercase hex chars, scrambled so
/// ids from concurrent clients don't collide on prefixes. Stable API in
/// both build modes (callers gate on a sink, not on the build).
[[nodiscard]] std::string next_trace_id();

#if !defined(CNY_NO_OBS)

class TraceSink {
 public:
  /// Opens (truncates) `path` and writes the array opener. Throws
  /// std::runtime_error when the file cannot be opened.
  explicit TraceSink(const std::string& path);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Nanoseconds since this sink's origin (monotonic).
  [[nodiscard]] std::uint64_t now_ns() const {
    return since_origin_ns(std::chrono::steady_clock::now());
  }
  /// Converts a caller-captured monotonic timestamp to sink time —
  /// how the server turns a request's queue-arrival instant into the
  /// queue_wait span start. Clamped to 0 before the sink existed.
  [[nodiscard]] std::uint64_t since_origin_ns(
      std::chrono::steady_clock::time_point t) const {
    if (t <= origin_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  /// Writes one complete event ("ph":"X"): [start_ns, start_ns + dur_ns)
  /// in sink time, on the calling thread's trace tid. `args` become the
  /// event's args object (string values, JSON-escaped here).
  void complete(
      std::string_view name, std::string_view category,
      std::uint64_t start_ns, std::uint64_t dur_ns,
      const std::vector<std::pair<std::string, std::string>>& args = {});

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  std::chrono::steady_clock::time_point origin_;
};

/// RAII span: construction starts the clock, destruction (or finish())
/// emits one complete event. Null sink = fully inert.
class Span {
 public:
  Span() = default;
  Span(TraceSink* sink, std::string_view name,
       std::string_view category = "app")
      : sink_(sink), name_(name), category_(category) {
    if (sink_ != nullptr) start_ns_ = sink_->now_ns();
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a string arg to the eventual event. No-op when inert.
  void arg(std::string_view key, std::string_view value) {
    if (sink_ != nullptr) args_.emplace_back(key, value);
  }

  /// Emits the event now (idempotent; the destructor calls it).
  void finish() {
    if (sink_ == nullptr) return;
    sink_->complete(name_, category_, start_ns_, sink_->now_ns() - start_ns_,
                    args_);
    sink_ = nullptr;
  }

 private:
  TraceSink* sink_ = nullptr;
  std::string_view name_;
  std::string_view category_;
  std::uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

#else  // CNY_NO_OBS: same shape, no behaviour, no storage beyond the API.

class TraceSink {
 public:
  explicit TraceSink(const std::string&) {}
  [[nodiscard]] std::uint64_t now_ns() const { return 0; }
  [[nodiscard]] std::uint64_t since_origin_ns(
      std::chrono::steady_clock::time_point) const {
    return 0;
  }
  void complete(std::string_view, std::string_view, std::uint64_t,
                std::uint64_t,
                const std::vector<std::pair<std::string, std::string>>& =
                    {}) {}
};

class Span {
 public:
  Span() = default;
  Span(TraceSink*, std::string_view, std::string_view = "app") {}
  void arg(std::string_view, std::string_view) {}
  void finish() {}
};

#endif

}  // namespace cny::obs
