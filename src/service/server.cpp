#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/resource.h"
#include "obs/snapshot.h"
#include "service/evaluate.h"
#include "util/contracts.h"

namespace cny::service {

namespace {

/// Long waits are sliced so stop() is honoured within one slice.
constexpr int kPollSliceMs = 200;

std::future<std::string> ready_future(std::string frame) {
  std::promise<std::string> promise;
  promise.set_value(std::move(frame));
  return promise.get_future();
}

}  // namespace

struct YieldServer::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        cache(options.cache_capacity, options.interpolant_knots,
              options.n_threads) {
    cache.attach_observability(&registry, trace(), log());
  }

  ServerOptions options;

  // Per-server metrics registry — ServerStats is a view over it (every
  // bump below is one relaxed atomic add; the old stats mutex is gone).
  // Counter references are resolved once here; the session-built metrics
  // ("sessions_built", "session_warm_us", "interpolant_build_us") are
  // registered by cache.attach_observability in the ctor.
  obs::Registry registry;
  obs::Counter& c_frames_in = registry.counter("frames_in");
  obs::Counter& c_responses = registry.counter("responses");
  obs::Counter& c_errors = registry.counter("errors");
  obs::Counter& c_batches = registry.counter("batches");
  obs::Counter& c_batched_requests = registry.counter("batched_requests");
  obs::Counter& c_connections = registry.counter("connections");
  obs::Counter& c_overload_rejects = registry.counter("overload_rejects");
  obs::Counter& c_deadline_sheds = registry.counter("deadline_sheds");
  obs::Counter& c_faults_injected = registry.counter("faults_injected");
  obs::Gauge& g_queue_depth = registry.gauge("queue_depth");
  obs::Histogram& h_queue_wait = registry.histogram("queue_wait_us");
  obs::Histogram& h_evaluate = registry.histogram("evaluate_us");
  obs::Histogram& h_serialize = registry.histogram("serialize_us");

  SessionCache cache;

  /// Time series the resource sampler feeds (server counters + process
  /// gauges per tick); sized for ~4 minutes at the default 1 s interval.
  obs::SnapshotRing snapshot_ring{256};
  std::optional<obs::ResourceSampler> sampler;

  [[nodiscard]] obs::TraceSink* trace() const {
    return options.trace_sink.get();
  }

  [[nodiscard]] obs::Log* log() const { return options.log.get(); }

  struct Pending {
    FlowRequest request;
    std::promise<std::string> promise;
    /// When the request was admitted — the reference point its optional
    /// relative deadline is measured from.
    std::chrono::steady_clock::time_point arrival;
  };

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Pending> queue;
  /// Written only under queue_mutex (so enqueue-after-drain is impossible);
  /// read lock-free by the I/O loops as their exit signal.
  std::atomic<bool> stop_flag{false};
  /// Graceful-drain mode: new FlowRequests are refused with
  /// `shutting_down`, queued ones still run. Written under queue_mutex.
  std::atomic<bool> draining{false};
  /// True while the dispatcher owns a popped batch (guarded by
  /// queue_mutex); drain() waits for queue empty *and* !in_flight.
  bool in_flight = false;
  std::condition_variable drained_cv;
  bool started = false;
  bool stopped = false;

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  std::thread dispatcher;
  std::thread acceptor;
  std::thread metrics_acceptor;
  std::optional<exec::ThreadPool> io_pool;
  int listen_fd = -1;
  int metrics_fd = -1;
  std::uint16_t bound_port = 0;
  std::uint16_t metrics_bound_port = 0;

  ServerStats stats_snapshot() const {
    ServerStats out;
    out.frames_in = c_frames_in.value();
    out.responses = c_responses.value();
    out.errors = c_errors.value();
    out.batches = c_batches.value();
    out.batched_requests = c_batched_requests.value();
    out.sessions_built = cache.sessions_built();
    out.connections = c_connections.value();
    out.overload_rejects = c_overload_rejects.value();
    out.deadline_sheds = c_deadline_sheds.value();
    out.faults_injected = c_faults_injected.value();
    return out;
  }

  /// The canonical-JSON metrics snapshot every stats consumer shares:
  /// Pong carries it (the `--ping` health probe doubles as the stats
  /// endpoint), StatsReply carries it, serve's shutdown log prints it.
  /// "stats" holds this server's counters (registry enumeration, so a
  /// counter added tomorrow appears without touching this function),
  /// "gauges"/"histograms" its levels and per-stage latencies, and
  /// "process" the process-wide exec.*/kernels.* metrics.
  std::string stats_payload() const {
    // The "process" block should carry current RSS/CPU even when no
    // background sampler runs — one synchronous /proc read per stats
    // frame, well off the request path.
    obs::refresh_resource_gauges();
    const obs::MetricsSnapshot own = registry.snapshot();
    const obs::MetricsSnapshot process = obs::Registry::global().snapshot();
    Json v = Json::object();
    v.set("version", Json::string(kVersionString));
    v.set("protocol", Json::number(std::uint64_t{kProtocolVersion}));
    Json counters = Json::object();
    for (const auto& [name, value] : own.counters) {
      counters.set(name, Json::number(value));
    }
    v.set("stats", std::move(counters));
    Json gauges = Json::object();
    for (const auto& [name, value] : own.gauges) {
      gauges.set(name, Json::number(static_cast<double>(value)));
    }
    v.set("gauges", std::move(gauges));
    Json histograms = Json::object();
    for (const auto& [name, h] : own.histograms) {
      Json entry = Json::object();
      entry.set("count", Json::number(h.count));
      entry.set("mean_us", Json::number(h.mean()));
      entry.set("p50_us", Json::number(h.quantile(0.5)));
      entry.set("p95_us", Json::number(h.quantile(0.95)));
      entry.set("max_us", Json::number(h.max));
      histograms.set(name, std::move(entry));
    }
    v.set("histograms", std::move(histograms));
    Json proc = Json::object();
    Json proc_counters = Json::object();
    for (const auto& [name, value] : process.counters) {
      proc_counters.set(name, Json::number(value));
    }
    proc.set("counters", std::move(proc_counters));
    Json proc_gauges = Json::object();
    for (const auto& [name, value] : process.gauges) {
      proc_gauges.set(name, Json::number(static_cast<double>(value)));
    }
    proc.set("gauges", std::move(proc_gauges));
    v.set("process", std::move(proc));
    return v.dump();
  }

  std::string metrics_text() const {
    obs::refresh_resource_gauges();
    return obs::render_openmetrics(registry.snapshot(),
                                   obs::Registry::global().snapshot());
  }

  std::future<std::string> error_now(std::string_view code,
                                     std::string_view message) {
    c_errors.add(1);
    return ready_future(encode_error(code, message));
  }

  void dispatch_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] {
          return stop_flag.load(std::memory_order_relaxed) || !queue.empty();
        });
        if (stop_flag.load(std::memory_order_relaxed)) return;
      }
      // The coalescing window: let the rest of a burst arrive and join
      // this cycle's batch. Responses are batching-invariant, so this
      // only ever trades first-request latency for batch throughput.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.coalesce_window_us));
      std::vector<Pending> batch;
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        const std::size_t n = std::min(queue.size(), options.max_batch);
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          batch.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        g_queue_depth.add(-static_cast<std::int64_t>(n));
        in_flight = !batch.empty();
      }
      if (!batch.empty()) process_batch(batch);
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        in_flight = false;
      }
      drained_cv.notify_all();
    }
  }

  /// Evaluates the requests at `indices` (which must share one session
  /// key) as one coalesced group through the evaluation core
  /// (evaluate.h), after shedding what is already past its deadline, and
  /// publishes one frame per request.
  void evaluate_group(std::vector<Pending>& batch,
                      const std::vector<std::size_t>& all_indices) {
    // Deadline shed, *before* any session or evaluation work: a request
    // whose relative deadline already passed while it sat in the queue is
    // answered with the transient `deadline_exceeded` — the client knows
    // the work was never evaluated, so retrying (with slack) is safe, and
    // the server never burns MC samples nobody is waiting for.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::size_t> indices;
    indices.reserve(all_indices.size());
    for (const std::size_t index : all_indices) {
      Pending& pending = batch[index];
      // Queue wait is measurement only (one histogram add; a span when
      // tracing) — computed from the arrival timestamp the admission path
      // already records for deadlines, so tracing adds no clock reads the
      // untraced server doesn't make.
      const std::uint64_t wait_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - pending.arrival)
              .count());
      h_queue_wait.observe(wait_ns / 1000);
      if (obs::TraceSink* sink = trace()) {
        std::vector<std::pair<std::string, std::string>> args;
        if (!pending.request.trace_id.empty()) {
          args.emplace_back("trace_id", pending.request.trace_id);
        }
        sink->complete("queue_wait", "server",
                       sink->since_origin_ns(pending.arrival), wait_ns, args);
      }
      const std::uint64_t deadline = pending.request.deadline_ms;
      if (deadline > 0 &&
          now >= pending.arrival + std::chrono::milliseconds(deadline)) {
        c_errors.add(1);
        c_deadline_sheds.add(1);
        obs::LogEvent(log(), obs::LogLevel::Warn, "server.deadline_shed")
            .num("deadline_ms", static_cast<std::int64_t>(deadline))
            .str("trace_id", pending.request.trace_id);
        pending.promise.set_value(encode_error(
            "deadline_exceeded",
            "deadline of " + std::to_string(deadline) +
                " ms passed before evaluation; request shed unevaluated"));
      } else {
        indices.push_back(index);
      }
    }
    if (indices.empty()) return;
    std::vector<const FlowRequest*> requests;
    requests.reserve(indices.size());
    for (const std::size_t index : indices) {
      requests.push_back(&batch[index].request);
    }
    const std::vector<RequestOutcome> outcomes = service::evaluate_group(
        cache, requests, options.n_threads,
        {.trace = trace(),
         .evaluate_us = &h_evaluate,
         .serialize_us = &h_serialize});
    // Count before publishing: a client woken by set_value must see its
    // own request in the stats (the relaxed adds are sequenced before the
    // promise's release, so the waking future observes them).
    c_batches.add(1);
    c_batched_requests.add(indices.size());
    for (const RequestOutcome& outcome : outcomes) {
      (outcome.error_code.empty() ? c_responses : c_errors).add(1);
    }
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const RequestOutcome& outcome = outcomes[i];
      batch[indices[i]].promise.set_value(
          outcome.error_code.empty()
              ? encode_frame(FrameType::FlowResponse, outcome.result_json)
              : encode_error(outcome.error_code, outcome.error_message));
    }
  }

  void process_batch(std::vector<Pending>& batch) {
    // Group by session so each warm (library, process) pair is evaluated
    // as one coalesced batch.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      groups[session_key(batch[i].request).canonical()].push_back(i);
    }
    for (const auto& [canonical, indices] : groups) {
      evaluate_group(batch, indices);
    }
  }

  // --- TCP transport -----------------------------------------------------

  void accept_loop() {
    while (!stop_flag.load(std::memory_order_relaxed)) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, kPollSliceMs);
      if (stop_flag.load(std::memory_order_relaxed)) return;
      if (r <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      c_connections.add(1);
      io_pool->post([this, fd] { serve_connection(fd); });
    }
  }

  /// Reads exactly `n` bytes; false (close the connection) on EOF, error,
  /// server stop, or an idle timeout. A truncated frame therefore never
  /// blocks a worker past the idle timeout — it just drops the connection.
  bool read_full(int fd, char* out, std::size_t n) {
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(options.idle_timeout_ms);
    std::size_t got = 0;
    while (got < n) {
      if (stop_flag.load(std::memory_order_relaxed)) return false;
      if (clock::now() >= deadline) return false;
      pollfd pfd{fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, kPollSliceMs);
      if (r < 0 && errno != EINTR) return false;
      if (r <= 0) continue;
      const ssize_t k = ::recv(fd, out + got, n - got, 0);
      if (k <= 0) return false;  // EOF or error
      got += static_cast<std::size_t>(k);
    }
    return true;
  }

  bool write_all(int fd, std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t k = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (k <= 0) return false;
      sent += static_cast<std::size_t>(k);
    }
    return true;
  }

  void serve_connection(int fd) {
    while (!stop_flag.load(std::memory_order_relaxed)) {
      std::string frame(kHeaderBytes, '\0');
      if (!read_full(fd, frame.data(), kHeaderBytes)) break;
      FrameHeader header;
      try {
        header = decode_header(frame);
      } catch (const ProtocolError& e) {
        // Framing can't be trusted past a bad header: answer and close.
        write_all(fd, encode_error("bad_frame", e.what()));
        c_errors.add(1);
        break;
      }
      frame.resize(kHeaderBytes + header.payload_size);
      if (header.payload_size > 0 &&
          !read_full(fd, frame.data() + kHeaderBytes, header.payload_size)) {
        break;  // truncated mid-frame
      }
      // Fault injection, at the same boundary a real network failure
      // lives: after the request is fully read, before/around the write.
      std::optional<FaultSpec> fault;
      if (options.fault_plan && header.type == FrameType::FlowRequest) {
        fault = options.fault_plan->next();
      }
      if (fault) {
        c_faults_injected.add(1);
        if (fault->kind == FaultKind::DropBeforeResponse) break;
        if (fault->kind == FaultKind::TransientReject) {
          c_errors.add(1);
          if (!write_all(fd, encode_error(fault->error_code,
                                          "injected transient fault"))) {
            break;
          }
          continue;  // the connection survives a transient reject
        }
      }
      std::string response = submit_frame(std::move(frame)).get();
      if (fault) {
        if (fault->kind == FaultKind::DropAfterResponse) break;
        apply_response_fault(*fault, response);
      }
      if (!write_all(fd, response)) break;
      // Truncation and slow-loris leave the stream unframeable; close so
      // the client sees EOF instead of waiting out its timeout.
      if (fault && (fault->kind == FaultKind::TruncateResponse ||
                    fault->kind == FaultKind::SlowLorisResponse)) {
        break;
      }
      if (header.type == FrameType::Shutdown) break;
    }
    ::close(fd);
  }

  // --- OpenMetrics HTTP endpoint -----------------------------------------

  void metrics_accept_loop() {
    while (!stop_flag.load(std::memory_order_relaxed)) {
      pollfd pfd{metrics_fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, kPollSliceMs);
      if (stop_flag.load(std::memory_order_relaxed)) return;
      if (r <= 0) continue;
      const int fd = ::accept(metrics_fd, nullptr, nullptr);
      if (fd < 0) continue;
      io_pool->post([this, fd] { serve_metrics_connection(fd); });
    }
  }

  /// One HTTP/1.0 exchange: read the request head (bounded by size and
  /// the idle timeout, so a slow-loris scraper can't pin a worker),
  /// answer `GET /metrics`, close. Prometheus scrapes exactly this way.
  void serve_metrics_connection(int fd) {
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(options.idle_timeout_ms);
    std::string head;
    bool complete = false;
    while (head.size() < 8192) {
      if (stop_flag.load(std::memory_order_relaxed)) break;
      if (clock::now() >= deadline) break;
      pollfd pfd{fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, kPollSliceMs);
      if (r < 0 && errno != EINTR) break;
      if (r <= 0) continue;
      char buf[1024];
      const ssize_t k = ::recv(fd, buf, sizeof(buf), 0);
      if (k <= 0) break;
      head.append(buf, static_cast<std::size_t>(k));
      if (head.find("\r\n\r\n") != std::string::npos ||
          head.find("\n\n") != std::string::npos) {
        complete = true;
        break;
      }
    }
    if (complete) {
      const std::size_t eol = head.find_first_of("\r\n");
      const std::string request_line =
          head.substr(0, eol == std::string::npos ? head.size() : eol);
      const std::size_t sp1 = request_line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : request_line.find(' ', sp1 + 1);
      const std::string method =
          sp1 == std::string::npos ? request_line
                                   : request_line.substr(0, sp1);
      std::string path = sp1 == std::string::npos || sp2 == std::string::npos
                             ? std::string()
                             : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      path = path.substr(0, path.find('?'));
      std::string status;
      std::string content_type = "text/plain; charset=utf-8";
      std::string body;
      if (method != "GET") {
        status = "405 Method Not Allowed";
        body = "only GET is supported\n";
      } else if (path != "/metrics") {
        status = "404 Not Found";
        body = "try /metrics\n";
      } else {
        status = "200 OK";
        content_type = obs::kOpenMetricsContentType;
        body = metrics_text();
      }
      std::string response = "HTTP/1.0 " + status +
                             "\r\nContent-Type: " + content_type +
                             "\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body;
      write_all(fd, response);
    }
    ::close(fd);
  }

  // --- protocol entry (shared by loopback and TCP) -----------------------

  std::future<std::string> submit_frame(std::string frame) {
    c_frames_in.add(1);
    Frame decoded;
    try {
      decoded = decode_frame(frame);
    } catch (const ProtocolError& e) {
      return error_now("bad_frame", e.what());
    }
    switch (decoded.type) {
      case FrameType::Ping:
        return ready_future(encode_frame(FrameType::Pong, stats_payload()));
      case FrameType::Stats:
        return ready_future(
            encode_frame(FrameType::StatsReply, stats_payload()));
      case FrameType::Shutdown: {
        obs::LogEvent(log(), obs::LogLevel::Info, "server.shutdown_frame");
        {
          const std::lock_guard<std::mutex> lock(shutdown_mutex);
          shutdown_requested = true;
        }
        shutdown_cv.notify_all();
        return ready_future(encode_frame(FrameType::Pong, stats_payload()));
      }
      case FrameType::FlowRequest: break;
      default:
        return error_now("unexpected_frame",
                         "frame type is not a request the server accepts");
    }
    // The admission span covers parse + validate + enqueue — where an
    // overloaded server spends a request's only server-side time before
    // rejecting it.
    obs::Span admission(trace(), "admission", "server");
    FlowRequest request;
    try {
      request = flow_request_from_json(Json::parse(decoded.payload));
      validate(request);
    } catch (const std::exception& e) {
      return error_now("bad_request", e.what());
    }
    if (!request.trace_id.empty()) admission.arg("trace_id", request.trace_id);
    std::future<std::string> future;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      if (stop_flag.load(std::memory_order_relaxed) ||
          draining.load(std::memory_order_relaxed)) {
        return error_now("shutting_down",
                         "server is draining; the request was not queued");
      }
      if (queue.size() >= options.max_queue) {
        // Bounded admission: reject *now* with a transient code rather
        // than queueing without bound. The caller's retry policy backs
        // off and resubmits; server memory stays bounded under overload.
        c_overload_rejects.add(1);
        obs::LogEvent(log(), obs::LogLevel::Warn, "server.overload_reject")
            .num("max_queue", static_cast<std::int64_t>(options.max_queue))
            .str("trace_id", request.trace_id);
        return error_now("server_overloaded",
                         "admission queue is full (" +
                             std::to_string(options.max_queue) +
                             " pending); retry with backoff");
      }
      Pending pending;
      pending.request = std::move(request);
      pending.arrival = std::chrono::steady_clock::now();
      future = pending.promise.get_future();
      queue.push_back(std::move(pending));
      g_queue_depth.add(1);
    }
    queue_cv.notify_one();
    return future;
  }
};

YieldServer::YieldServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

YieldServer::~YieldServer() { stop(); }

namespace {

/// Binds + listens a loopback TCP socket; returns {fd, bound_port}.
/// Throws ServiceSetupError with `what_prefix` context on failure.
std::pair<int, std::uint16_t> bind_loopback(std::uint16_t port,
                                            const char* what_prefix) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw ServiceSetupError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 64) < 0) {
    const std::string what = std::string(what_prefix) + " 127.0.0.1:" +
                             std::to_string(port) + ": " +
                             std::strerror(errno);
    ::close(fd);
    throw ServiceSetupError(what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  return {fd, ntohs(bound.sin_port)};
}

}  // namespace

void YieldServer::start() {
  Impl& impl = *impl_;
  CNY_EXPECT_MSG(!impl.started, "YieldServer::start() called twice");
  impl.started = true;
  if (impl.options.listen || impl.options.metrics_listen) {
    // Every send already passes MSG_NOSIGNAL, but a library the server
    // links could write to a dead pipe too — a peer dying mid-frame must
    // never take the process down (regression-tested in test_service).
    std::signal(SIGPIPE, SIG_IGN);
    // Connection handlers block on socket reads, so give them more lanes
    // than the (possibly single-core) compute pool would get.
    impl.io_pool.emplace(std::max(4u, exec::hardware_threads()));
  }
  if (impl.options.listen) {
    std::tie(impl.listen_fd, impl.bound_port) =
        bind_loopback(impl.options.port, "bind/listen");
    impl.acceptor = std::thread([&impl] { impl.accept_loop(); });
  }
  if (impl.options.metrics_listen) {
    std::tie(impl.metrics_fd, impl.metrics_bound_port) =
        bind_loopback(impl.options.metrics_port, "bind/listen (metrics)");
    impl.metrics_acceptor = std::thread([&impl] { impl.metrics_accept_loop(); });
  }
  if (impl.options.sample_interval_ms > 0) {
    obs::ResourceSampler::Options sampler_options;
    sampler_options.interval_ms = impl.options.sample_interval_ms;
    sampler_options.ring = &impl.snapshot_ring;
    sampler_options.export_path = impl.options.snapshot_export_path;
    // Each ring entry carries this server's counters plus the process-wide
    // gauges (exec.*, process.*) so one time series answers both "how fast"
    // and "how big".
    sampler_options.snapshot_source = [&impl] {
      obs::MetricsSnapshot merged = impl.registry.snapshot();
      const obs::MetricsSnapshot process =
          obs::Registry::global().snapshot();
      merged.counters.insert(merged.counters.end(),
                             process.counters.begin(),
                             process.counters.end());
      merged.gauges.insert(merged.gauges.end(), process.gauges.begin(),
                           process.gauges.end());
      return merged;
    };
    impl.sampler.emplace(std::move(sampler_options));
  }
  impl.dispatcher = std::thread([&impl] { impl.dispatch_loop(); });
  obs::LogEvent(impl.log(), obs::LogLevel::Info, "server.start")
      .num("port", impl.options.listen ? impl.bound_port : 0)
      .num("metrics_port",
           impl.options.metrics_listen ? impl.metrics_bound_port : 0)
      .num("sample_interval_ms", impl.options.sample_interval_ms);
}

void YieldServer::stop() {
  Impl& impl = *impl_;
  if (!impl.started || impl.stopped) return;
  impl.stopped = true;
  {
    const std::lock_guard<std::mutex> lock(impl.queue_mutex);
    impl.stop_flag.store(true, std::memory_order_relaxed);
  }
  impl.queue_cv.notify_all();
  impl.shutdown_cv.notify_all();
  impl.drained_cv.notify_all();
  if (impl.dispatcher.joinable()) impl.dispatcher.join();
  // The dispatcher is gone and stop_flag is up (under queue_mutex), so no
  // request can be enqueued after this drain — every pending future
  // resolves, which is what lets the connection handlers unblock and the
  // io pool join below.
  {
    const std::lock_guard<std::mutex> lock(impl.queue_mutex);
    for (auto& pending : impl.queue) {
      pending.promise.set_value(
          encode_error("shutting_down", "server stopped"));
    }
    impl.queue.clear();
    impl.g_queue_depth.set(0);
  }
  if (impl.acceptor.joinable()) impl.acceptor.join();
  if (impl.metrics_acceptor.joinable()) impl.metrics_acceptor.join();
  impl.io_pool.reset();
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  if (impl.metrics_fd >= 0) {
    ::close(impl.metrics_fd);
    impl.metrics_fd = -1;
  }
  impl.sampler.reset();
  obs::LogEvent(impl.log(), obs::LogLevel::Info, "server.stop")
      .num("frames_in", static_cast<std::int64_t>(impl.c_frames_in.value()))
      .num("responses", static_cast<std::int64_t>(impl.c_responses.value()))
      .num("errors", static_cast<std::int64_t>(impl.c_errors.value()));
}

void YieldServer::drain() {
  Impl& impl = *impl_;
  if (!impl.started || impl.stopped) return;
  obs::LogEvent(impl.log(), obs::LogLevel::Info, "server.drain")
      .num("queued", [&impl] {
        const std::lock_guard<std::mutex> lock(impl.queue_mutex);
        return static_cast<std::int64_t>(impl.queue.size());
      }());
  {
    std::unique_lock<std::mutex> lock(impl.queue_mutex);
    // Under queue_mutex, so no FlowRequest can slip past the draining
    // check in submit_frame and enqueue after this point.
    impl.draining.store(true, std::memory_order_relaxed);
    impl.drained_cv.wait(lock, [&] {
      return (impl.queue.empty() && !impl.in_flight) ||
             impl.stop_flag.load(std::memory_order_relaxed);
    });
  }
  stop();
}

std::uint16_t YieldServer::port() const { return impl_->bound_port; }

std::uint16_t YieldServer::metrics_port() const {
  return impl_->metrics_bound_port;
}

std::future<std::string> YieldServer::submit(std::string frame) {
  Impl& impl = *impl_;
  CNY_EXPECT_MSG(impl.started, "submit() before start()");
  // Loopback fault injection: the same plan the TCP path consults, with
  // the socket-level outcome mapped onto the response string — a dropped
  // connection becomes the empty string (the client treats it as a
  // transport failure), truncation/corruption/delay mutate the bytes.
  std::optional<FaultSpec> fault;
  if (impl.options.fault_plan && frame.size() >= kHeaderBytes) {
    try {
      const FrameHeader header =
          decode_header(std::string_view(frame).substr(0, kHeaderBytes));
      if (header.type == FrameType::FlowRequest) {
        fault = impl.options.fault_plan->next();
      }
    } catch (const ProtocolError&) {
      // A malformed header takes the normal bad_frame path below.
    }
  }
  if (!fault) return impl.submit_frame(std::move(frame));
  impl.c_faults_injected.add(1);
  switch (fault->kind) {
    case FaultKind::DropBeforeResponse:
      return ready_future(std::string());
    case FaultKind::TransientReject:
      impl.c_errors.add(1);
      return ready_future(
          encode_error(fault->error_code, "injected transient fault"));
    case FaultKind::DropAfterResponse: {
      // Evaluate (the server did the work), then "lose" the response.
      auto inner = impl.submit_frame(std::move(frame));
      return std::async(std::launch::deferred,
                        [inner = std::move(inner)]() mutable {
                          inner.get();
                          return std::string();
                        });
    }
    default: {
      auto inner = impl.submit_frame(std::move(frame));
      return std::async(std::launch::deferred,
                        [inner = std::move(inner), spec = *fault]() mutable {
                          std::string response = inner.get();
                          apply_response_fault(spec, response);
                          return response;
                        });
    }
  }
}

void YieldServer::wait_shutdown() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.shutdown_mutex);
  impl.shutdown_cv.wait(lock, [&] {
    return impl.shutdown_requested ||
           impl.stop_flag.load(std::memory_order_relaxed);
  });
}

bool YieldServer::wait_shutdown_for(unsigned timeout_ms) {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.shutdown_mutex);
  return impl.shutdown_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        return impl.shutdown_requested ||
               impl.stop_flag.load(std::memory_order_relaxed);
      });
}

ServerStats YieldServer::stats() const { return impl_->stats_snapshot(); }

std::string YieldServer::stats_json() const { return impl_->stats_payload(); }

std::string YieldServer::metrics_text() const {
  return impl_->metrics_text();
}

}  // namespace cny::service
