// Shared pieces of the perfbench program: clocks and order statistics, the
// benchmark's own in-memory span recorder, and the per-run report that
// becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "device/failure_model.h"
#include "service/json.h"
#include "service/protocol.h"

namespace cny::service {
class YieldServer;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Times `fn` `reps` times and returns the median wall milliseconds.
template <typename Fn>
[[nodiscard]] double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_since(t0));
  }
  return median(std::move(samples));
}

// --- Spans -----------------------------------------------------------------
//
// The benchmark records spans around its own calls into the library's
// public functions; nothing inside the library is instrumented. A span's
// name is "<layer>.<call>", its parent is the innermost open span on the
// same thread, and spans of one service request share its request id.
// Records stay in memory until the run ends.

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] std::uint64_t next_id();
  void record(SpanRecord record);
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// Writes every record as Chrome trace-event JSONL.
  void write(const std::filesystem::path& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a no-op while the tracer is off, so the untraced run pays
/// one branch per call site. `parent` overrides the thread's open span
/// (a request's spans run on the generator and collector threads).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
};

/// Per-layer self time: each span's duration minus the part of its
/// interval its children cover, summed by the layer prefix of its name.
[[nodiscard]] std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans);

// --- Report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  cny::service::Json config;       ///< this workload's "params" object
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
};

class Report {
 public:
  /// One operation attempted; `ok` false counts it failed (an error, a
  /// refusal or a wrong output) and records `what`.
  void op(bool ok, const std::string& what = "");
  /// A whole-run output check; failing it fails the run.
  void check(bool ok, const std::string& what);

  /// The contract's end-to-end metric set (untraced run).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Named end-to-end figures (flow_s, lat_p50_ms.light, ...), printed
  /// for the reader.
  void named(const std::string& name, double value, const std::string& unit);
  /// Per-layer rows (traced run).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Recorded input properties of the generated workload.
  void input(const std::string& name, double value);

  [[nodiscard]] bool correct() const { return failed_ == 0 && checks_ok_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& e2e() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& named() const { return named_; }
  [[nodiscard]] const std::vector<Metric>& layers() const { return layers_; }
  [[nodiscard]] const std::vector<Metric>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<std::string> problems_;
  std::vector<Metric> e2e_;
  std::vector<Metric> named_;
  std::vector<Metric> layers_;
  std::vector<Metric> inputs_;
};

/// VmHWM of this process in MB (0 when /proc is unreadable).
[[nodiscard]] double peak_rss_mb();

/// The paper-default request every workload starts from (nangate45, the
/// OpenRISC-like design, M = 1e8, Y = 0.90, paper process corner).
[[nodiscard]] cny::service::FlowRequest paper_request();

/// A fresh FailureModel at `spec`'s corner: exact p_F, empty memo, no
/// interpolant (what every `cntyield_cli flow` run starts from).
[[nodiscard]] cny::device::FailureModel cold_model(
    const cny::service::ProcessSpec& spec);

/// Config accessors that name the missing key instead of a bare throw.
[[nodiscard]] double cfg_num(const cny::service::Json& config,
                             const char* key);
[[nodiscard]] std::vector<double> cfg_list(const cny::service::Json& config,
                                           const char* key);

// --- Workloads -------------------------------------------------------------
//
// Each runs its measured phase for opts.seconds (untraced), and with
// opts.trace additionally a traced replay plus the layer probes.

void run_flow_cold(const Options& opts, Report& report);
void run_serve_zipf(const Options& opts, Report& report);
void run_campaign_corners(const Options& opts, Report& report);

/// Layer probes shared by every workload's traced run (layers.cpp): each
/// public layer entry point timed on the workload's own inputs.
struct ProbeInputs {
  /// The workload's requests in workload order; the first one drives the
  /// flow and device probes.
  std::vector<cny::service::FlowRequest> requests;
  /// A fresh exact FailureModel per flow (flow_cold) instead of a warm
  /// session model (server, campaign runner).
  bool cold = false;
  bool own_server = false;    ///< server rows already recorded by the run
  bool own_campaign = false;  ///< campaign + store.load rows likewise
  /// Untraced wall of one flow on this model state (ms): the total the
  /// replayed step rows plus flow.residual_ms add up to. <= 0 uses the
  /// probe's own run_flow timing.
  double flow_wall_ms = 0.0;
};
void probe_layers(const Options& opts, const ProbeInputs& inputs,
                  Report& report);

/// The server.* rows, read through the server's public stats() and
/// stats_json() (no instrumentation of its own).
void record_server_rows(const cny::service::YieldServer& server,
                        Report& report);

}  // namespace perfbench
