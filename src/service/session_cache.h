// Warm-model session cache: the piece that lets N clients pay ~1 warm-up.
//
// A *session* is everything expensive a FlowRequest needs that does not
// depend on the request's seed or yield target: the generated library, the
// FailureModel with its solver-bracket log-p_F interpolant already built
// (and an exact-value memo that keeps warming as requests arrive), and the
// synthetic designs, cached per instance count. Requests that share a
// (library, *derived* ProcessSpec) key share one session — a
// RemovalFrontier scenario is resolved to the corner it earns before
// keying, so scenario sweeps and explicit-corner requests reuse the same
// warm model and the truncated-PGF kernel's table-build cost is paid once
// per process corner, not per client.
//
// Sessions are handed out as shared_ptr<const Session>: eviction (LRU past
// `capacity`) never invalidates a session a coalesced batch is still
// evaluating against.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "celllib/library.h"
#include "device/failure_model.h"
#include "netlist/design.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"

namespace cny::service {

struct SessionKey {
  std::string library;  ///< "nangate45" | "commercial65"
  ProcessSpec process;

  /// Canonical text form — the cache's map key and the log label. Doubles
  /// are rendered shortest-round-trip, so distinct corners never collide.
  [[nodiscard]] std::string canonical() const;
};

/// Derives the cache key of a request: the library plus the process corner
/// after scenario derivation (RemovalFrontier's earned p_Rs replaces the
/// stated one; everything else in FlowParams stays per-request).
[[nodiscard]] SessionKey session_key(const FlowRequest& request);

class Session {
 public:
  /// Generates the library and warms the model through yield::warm_model:
  /// the log-p_F interpolant is installed over the full W_min solver
  /// bracket with `interpolant_knots` knots, and the session's first flows
  /// fill the knots they read (`n_threads`, 0 = hardware concurrency, is
  /// the kernel parallelism of the fills batched reads make). The optional
  /// observability hooks time the warm-up (an "interpolant_build" span +
  /// histogram) — pure measurement, never behaviour.
  Session(SessionKey key, std::size_t interpolant_knots, unsigned n_threads,
          obs::TraceSink* trace = nullptr,
          obs::Histogram* build_histogram = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionKey& key() const { return key_; }
  /// key().canonical(), computed once (the key is immutable).
  [[nodiscard]] const std::string& canonical() const { return canonical_; }
  [[nodiscard]] const celllib::Library& library() const { return lib_; }
  [[nodiscard]] const device::FailureModel& model() const { return model_; }

  /// The design for `instances` cell instances (0 = the OpenRISC-like
  /// default). Cached per distinct count with a small LRU cap — the
  /// instance count is client-controlled, so an unbounded cache would be a
  /// memory-exhaustion vector; shared ownership keeps a design alive for
  /// callers still holding it after eviction. Thread-safe.
  [[nodiscard]] std::shared_ptr<const netlist::Design> design(
      std::uint64_t instances) const;

 private:
  SessionKey key_;
  std::string canonical_;
  celllib::Library lib_;
  device::FailureModel model_;
  mutable std::mutex designs_mutex_;
  /// Most recently used first, at most kMaxCachedDesigns entries.
  mutable std::vector<
      std::pair<std::uint64_t, std::shared_ptr<const netlist::Design>>>
      designs_;
};

class SessionCache {
 public:
  /// Keeps at most `capacity` warm sessions (least recently used evicted
  /// first); new sessions warm their interpolant with `interpolant_knots`
  /// knots on `n_threads` threads.
  explicit SessionCache(std::size_t capacity,
                        std::size_t interpolant_knots = 65,
                        unsigned n_threads = 0);

  /// Attaches observability: cache misses bump `registry`'s
  /// "sessions_built" counter and feed its "session_warm_us" /
  /// "interpolant_build_us" histograms, emit "session_warm" /
  /// "interpolant_build" spans on `sink`, and write session.built /
  /// session.evicted events to `log` (any may be null). Call before
  /// serving — the hooks are read unlocked on the acquire path.
  void attach_observability(obs::Registry* registry, obs::TraceSink* sink,
                            obs::Log* log = nullptr);

  /// The warm session for `key`; builds it on a miss. Building holds the
  /// cache lock (misses are rare and seconds-long; concurrent requests for
  /// the *same* cold key must not warm it twice).
  [[nodiscard]] std::shared_ptr<const Session> acquire(const SessionKey& key);

  [[nodiscard]] std::size_t size() const;
  /// Total cache misses, i.e. sessions ever warmed (stats/tests).
  [[nodiscard]] std::uint64_t sessions_built() const;

 private:
  std::size_t capacity_;
  std::size_t interpolant_knots_;
  unsigned n_threads_;
  obs::TraceSink* trace_ = nullptr;
  obs::Log* log_ = nullptr;
  obs::Counter* built_counter_ = nullptr;
  obs::Gauge* occupancy_gauge_ = nullptr;
  obs::Histogram* warm_histogram_ = nullptr;
  obs::Histogram* build_histogram_ = nullptr;
  mutable std::mutex mutex_;
  /// Most recently used first.
  std::vector<std::shared_ptr<const Session>> sessions_;
  std::uint64_t built_ = 0;
};

}  // namespace cny::service
