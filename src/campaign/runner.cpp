#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "service/evaluate.h"
#include "service/server.h"
#include "service/session_cache.h"

namespace cny::campaign {

namespace {

/// Progress sidecar writer: one self-contained JSON line per finished
/// chunk, flushed immediately so `tail -f` (or a dashboard) sees each
/// checkpoint as it lands. The sidecar is write-only telemetry — resume
/// reads the store, never this file — so its presence cannot perturb
/// campaign results.
class ProgressSidecar {
 public:
  explicit ProgressSidecar(const std::string& path) {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      throw std::runtime_error("cannot open progress file '" + path + "'");
    }
  }
  ~ProgressSidecar() {
    if (file_ != nullptr) std::fclose(file_);
  }
  ProgressSidecar(const ProgressSidecar&) = delete;
  ProgressSidecar& operator=(const ProgressSidecar&) = delete;

  void chunk_line(std::size_t chunk, std::size_t done, std::size_t pending,
                  const CampaignStats& stats, std::uint64_t elapsed_ms,
                  const obs::ResourceUsage& usage) {
    // ETA extrapolates this run's per-point rate over what is left; crude
    // but monotone inputs make it stable enough for a progress line.
    const std::uint64_t eta_ms =
        done == 0 ? 0
                  : static_cast<std::uint64_t>(
                        static_cast<double>(elapsed_ms) *
                        static_cast<double>(pending - done) /
                        static_cast<double>(done));
    // rss_kb / vm_hwm_kb come last so existing line consumers (which match
    // on the leading fields) keep working; both are 0 when /proc was
    // unreadable.
    std::fprintf(
        file_,
        "{\"chunk\":%zu,\"done\":%zu,\"pending\":%zu,\"evaluated\":%zu,"
        "\"failed\":%zu,\"skipped\":%zu,\"retry_rounds\":%llu,"
        "\"sessions_built\":%llu,\"elapsed_ms\":%llu,\"eta_ms\":%llu,"
        "\"rss_kb\":%llu,\"vm_hwm_kb\":%llu}\n",
        chunk, done, pending, stats.evaluated, stats.failed, stats.skipped,
        static_cast<unsigned long long>(stats.retry_rounds),
        static_cast<unsigned long long>(stats.sessions_built),
        static_cast<unsigned long long>(elapsed_ms),
        static_cast<unsigned long long>(eta_ms),
        static_cast<unsigned long long>(usage.rss_kb),
        static_cast<unsigned long long>(usage.vm_hwm_kb));
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
};

/// Classifies one response for the via-service path. A terminal outcome
/// fills `out` and returns true; a transient one (retry-safe: transient
/// error code, or a dropped/undecodable/corrupt response) fills `code` /
/// `message` and returns false — it must never reach the store.
bool classify_response(std::string bytes, service::RequestOutcome& out,
                       std::string& code, std::string& message) {
  if (bytes.empty()) {
    // The fault harness models a dropped connection as an empty response.
    code = "transport";
    message = "connection dropped before the response arrived";
    return false;
  }
  service::Frame frame;
  try {
    frame = service::decode_frame(bytes);
  } catch (const service::ProtocolError& e) {
    code = "transport";
    message = std::string("undecodable response: ") + e.what();
    return false;
  }
  if (frame.type == service::FrameType::FlowResponse) {
    try {
      (void)service::flow_result_from_json(service::Json::parse(frame.payload));
    } catch (const std::exception& e) {
      code = "transport";
      message = std::string("corrupt response payload: ") + e.what();
      return false;
    }
    out = {std::move(frame.payload), "", ""};
    return true;
  }
  const service::ServiceErrorInfo error =
      service::error_from_payload(frame.payload);
  if (service::is_transient_error(error.code)) {
    code = error.code;
    message = error.message;
    return false;
  }
  out = {"", error.code, error.message};
  return true;
}

void evaluate_chunk_service(const std::vector<const CompiledPoint*>& chunk,
                            std::vector<service::RequestOutcome>& outcomes,
                            service::YieldServer& server,
                            const service::RetryPolicy& retry,
                            std::uint64_t& retry_rounds, obs::Log* log) {
  // Round-based retry: every unresolved point is submitted together (so
  // the server still coalesces the chunk into batches), the transient
  // failures go again next round after one backoff sleep. Retrying is
  // safe — the service is deterministic and side-effect-free — and a
  // point retried through a FaultPlan with period >= 2 lands on a fresh
  // ordinal, so it is never re-faulted round after round.
  std::vector<std::size_t> open(chunk.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  const unsigned max_attempts = std::max(1u, retry.max_attempts);
  std::string last_code;
  std::string last_message;
  for (unsigned attempt = 1; !open.empty(); ++attempt) {
    std::vector<std::future<std::string>> futures;
    futures.reserve(open.size());
    for (const std::size_t index : open) {
      futures.push_back(
          server.submit(service::encode_flow_request(chunk[index]->request)));
    }
    std::vector<std::size_t> still_open;
    for (std::size_t k = 0; k < open.size(); ++k) {
      const std::size_t index = open[k];
      std::string code;
      std::string message;
      if (!classify_response(futures[k].get(), outcomes[index], code,
                             message)) {
        still_open.push_back(index);
        last_code = std::move(code);
        last_message = std::move(message);
      }
    }
    open = std::move(still_open);
    if (open.empty()) break;
    if (attempt >= max_attempts) {
      // Exhausted: fail the run rather than record a transient outcome —
      // the store must only ever hold results and *terminal* errors.
      obs::LogEvent(log, obs::LogLevel::Error, "campaign.retry_exhausted")
          .num("open", static_cast<std::int64_t>(open.size()))
          .num("attempts", static_cast<std::int64_t>(max_attempts))
          .str("last_code", last_code);
      throw service::ServiceError(
          last_code, std::to_string(open.size()) +
                         " point(s) still failing after " +
                         std::to_string(max_attempts) +
                         " attempt(s); last failure: " + last_message);
    }
    retry_rounds += 1;  // points remain open: the next round is a retry
    obs::LogEvent(log, obs::LogLevel::Warn, "campaign.retry_round")
        .num("attempt", static_cast<std::int64_t>(attempt))
        .num("open", static_cast<std::int64_t>(open.size()))
        .str("last_code", last_code);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retry.backoff_ms(attempt)));
  }
}

}  // namespace

CampaignStats run_campaign(const std::vector<CompiledPoint>& points,
                           ResultStore& store, const RunnerOptions& options) {
  CampaignStats stats;
  stats.total = points.size();

  // Resume: campaign order minus what the store already holds.
  std::vector<const CompiledPoint*> pending;
  for (const CompiledPoint& point : points) {
    if (store.contains(point.key)) {
      stats.skipped += 1;
    } else {
      pending.push_back(&point);
    }
  }

  const std::size_t chunk_size =
      options.checkpoint_every == 0 ? pending.size() : options.checkpoint_every;

  std::unique_ptr<service::SessionCache> cache;
  std::unique_ptr<service::YieldServer> server;
  if (!pending.empty()) {
    if (options.via_service) {
      service::ServerOptions server_options;
      server_options.n_threads = options.n_threads;
      server_options.cache_capacity = options.cache_capacity;
      server_options.interpolant_knots = options.interpolant_knots;
      server_options.fault_plan = options.fault_plan;
      server_options.trace_sink = options.trace_sink;
      server_options.log = options.log;
      // evaluate_chunk_service submits a whole chunk at once; the admission
      // queue must admit it, or an oversized chunk would deterministically
      // draw server_overloaded rejections and burn the retry budget meant
      // for injected faults.
      server_options.max_queue =
          std::max(server_options.max_queue, chunk_size);
      server = std::make_unique<service::YieldServer>(server_options);
      server->start();
    } else {
      cache = std::make_unique<service::SessionCache>(
          options.cache_capacity, options.interpolant_knots,
          options.n_threads);
      // Direct-path sessions report into the process-wide registry (the
      // server path has its own per-server one) and trace through the
      // campaign's sink.
      cache->attach_observability(&obs::Registry::global(),
                                  options.trace_sink.get(),
                                  options.log.get());
    }
  }

  std::unique_ptr<ProgressSidecar> sidecar;
  if (!options.progress_path.empty()) {
    sidecar = std::make_unique<ProgressSidecar>(options.progress_path);
  }

  obs::LogEvent(options.log.get(), obs::LogLevel::Info, "campaign.start")
      .num("total", static_cast<std::int64_t>(stats.total))
      .num("pending", static_cast<std::int64_t>(pending.size()))
      .num("chunk_size", static_cast<std::int64_t>(chunk_size))
      .num("via_service", options.via_service ? 1 : 0);

  const auto run_start = std::chrono::steady_clock::now();
  std::size_t chunk_index = 0;
  std::size_t done = 0;
  while (done < pending.size()) {
    if (options.interrupted && options.interrupted()) {
      stats.interrupted = true;
      obs::LogEvent(options.log.get(), obs::LogLevel::Warn,
                    "campaign.interrupted")
          .num("done", static_cast<std::int64_t>(done))
          .num("pending", static_cast<std::int64_t>(pending.size()));
      break;
    }
    const std::size_t n = std::min(chunk_size, pending.size() - done);
    const std::vector<const CompiledPoint*> chunk(
        pending.begin() + static_cast<std::ptrdiff_t>(done),
        pending.begin() + static_cast<std::ptrdiff_t>(done + n));
    std::vector<service::RequestOutcome> outcomes(chunk.size());
    obs::Span chunk_span(options.trace_sink.get(), "campaign.chunk",
                         "campaign");
    chunk_span.arg("chunk", std::to_string(chunk_index));
    chunk_span.arg("points", std::to_string(n));
    if (server != nullptr) {
      evaluate_chunk_service(chunk, outcomes, *server, options.retry,
                             stats.retry_rounds, options.log.get());
    } else {
      // Group by session key so each warm corner is evaluated once per
      // chunk; std::map iteration keeps the group order deterministic.
      std::map<std::string, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        groups[service::session_key(chunk[i]->request).canonical()]
            .push_back(i);
      }
      for (const auto& [canonical, indices] : groups) {
        std::vector<const service::FlowRequest*> requests;
        requests.reserve(indices.size());
        for (const std::size_t index : indices) {
          requests.push_back(&chunk[index]->request);
        }
        std::vector<service::RequestOutcome> group = service::evaluate_group(
            *cache, requests, options.n_threads,
            {.trace = options.trace_sink.get()});
        for (std::size_t k = 0; k < indices.size(); ++k) {
          outcomes[indices[k]] = std::move(group[k]);
        }
      }
    }
    // Checkpoint: append this chunk's records in campaign order. Only
    // after a record is on disk does it count as done.
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      StoreRecord record;
      record.key = chunk[i]->key;
      record.index = chunk[i]->index;
      record.request_json = canonical_request(chunk[i]->request);
      record.result_json = std::move(outcomes[i].result_json);
      record.error_code = std::move(outcomes[i].error_code);
      record.error_message = std::move(outcomes[i].error_message);
      if (record.error_code.empty()) {
        stats.evaluated += 1;
      } else {
        stats.failed += 1;
      }
      store.append(std::move(record));
    }
    done += n;
    chunk_span.finish();
    chunk_index += 1;
    stats.sessions_built = server != nullptr ? server->stats().sessions_built
                                             : cache->sessions_built();
    // One /proc sample per checkpoint, shared by the sidecar line and the
    // checkpoint event — write-only telemetry either way.
    const obs::ResourceUsage usage = obs::sample_resources();
    if (sidecar != nullptr) {
      sidecar->chunk_line(
          chunk_index, done, pending.size(), stats,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - run_start)
                  .count()),
          usage);
    }
    obs::LogEvent(options.log.get(), obs::LogLevel::Info,
                  "campaign.checkpoint")
        .num("chunk", static_cast<std::int64_t>(chunk_index))
        .num("done", static_cast<std::int64_t>(done))
        .num("pending", static_cast<std::int64_t>(pending.size()))
        .num("rss_kb", static_cast<std::int64_t>(usage.rss_kb));
    if (options.progress) options.progress(done, pending.size());
  }

  if (server != nullptr) {
    stats.sessions_built = server->stats().sessions_built;
    server->stop();
  } else if (cache != nullptr) {
    stats.sessions_built = cache->sessions_built();
  }
  obs::LogEvent(options.log.get(), obs::LogLevel::Info, "campaign.finish")
      .num("evaluated", static_cast<std::int64_t>(stats.evaluated))
      .num("failed", static_cast<std::int64_t>(stats.failed))
      .num("skipped", static_cast<std::int64_t>(stats.skipped))
      .num("retry_rounds", static_cast<std::int64_t>(stats.retry_rounds))
      .num("interrupted", stats.interrupted ? 1 : 0);
  return stats;
}

}  // namespace cny::campaign
