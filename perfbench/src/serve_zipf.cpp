// serve_zipf: an open loop into an in-process YieldServer with default
// ServerOptions but `server_threads` compute threads (fewer than the
// shared host's cores; see workloads.json) through loopback submit(), from
// one generator thread.
// Poisson arrivals at two fixed offered rates (light, heavy), then a
// closed-loop saturation phase with a fixed number of requests
// outstanding. The three phases repeat in short cycles, so a slow spell of
// a shared host lands on every phase alike instead of on one. Requests are Zipf-skewed over the process corners (few
// enough to stay warm in the session cache) and, within a corner, over a
// pool of (seed, yield) pairs, so a measured share repeats exactly.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common.h"
#include "service/server.h"

namespace perfbench {

namespace {

namespace svc = cny::service;

enum Phase { kLight = 0, kHeavy = 1, kSaturation = 2 };

/// Inverse-CDF sampler over ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

struct Arrival {
  double offset = 0.0;  ///< due time from its cycle's start (s)
  std::size_t id = 0;   ///< pool index
  Phase phase = kLight;
  std::size_t cycle = 0;
};

struct Workload {
  std::vector<svc::FlowRequest> pool;  ///< corner-major request pool
  std::size_t corners = 0;
  std::size_t cycles = 0;
  double saturation_s = 0.0;       ///< closed-loop window per cycle
  std::vector<Arrival> schedule;   ///< open-loop arrivals, cycle by cycle
  std::vector<std::size_t> saturation_ids;  ///< drawn in order, wrapped
};

Workload generate(const Options& opts, double seconds) {
  const auto& cfg = opts.config;
  Workload w;
  const auto corners = cfg.at("corners").items();
  const auto yields = cfg_list(cfg, "yields");
  const auto pool_size = static_cast<std::size_t>(cfg_num(cfg, "pool_size"));
  for (const auto& corner : corners) {
    for (std::size_t j = 0; j < pool_size; ++j) {
      svc::FlowRequest r = paper_request();
      r.process.pitch_cv = corner.items().at(0).as_double();
      r.process.p_metallic = corner.items().at(1).as_double();
      r.params.mc_samples =
          static_cast<std::size_t>(cfg_num(cfg, "mc_samples"));
      r.params.mc_streams = static_cast<unsigned>(cfg_num(cfg, "mc_streams"));
      r.params.seed = opts.seed * 100003 + j;
      r.params.yield_desired = yields[j % yields.size()];
      w.pool.push_back(r);
    }
  }
  w.corners = corners.size();
  const Zipf corner_zipf(w.corners, cfg_num(cfg, "zipf_s"));
  const Zipf pool_zipf(pool_size, cfg_num(cfg, "zipf_s"));
  std::mt19937_64 rng(opts.seed);
  const auto draw = [&] {
    const std::size_t c = corner_zipf.draw(uniform(rng));
    return c * pool_size + pool_zipf.draw(uniform(rng));
  };
  const auto split = cfg_list(cfg, "phase_split");
  const double rates[2] = {cfg_num(cfg, "light_rps"), cfg_num(cfg, "heavy_rps")};
  w.cycles = static_cast<std::size_t>(cfg_num(cfg, "cycles"));
  const double cycle_s = seconds / static_cast<double>(w.cycles);
  w.saturation_s = split[kSaturation] * cycle_s;
  for (std::size_t c = 0; c < w.cycles; ++c) {
    double t = 0.0;
    double phase_end = 0.0;
    for (const Phase p : {kLight, kHeavy}) {
      phase_end += split[p] * cycle_s;
      for (;;) {
        t += -std::log(1.0 - uniform(rng)) / rates[p];
        if (t >= phase_end) break;
        w.schedule.push_back({t, draw(), p, c});
      }
      t = phase_end;
    }
  }
  for (int i = 0; i < 200000; ++i) w.saturation_ids.push_back(draw());
  return w;
}

/// One request in flight.
struct InFlight {
  std::size_t id = 0;  ///< pool index
  Phase phase = kLight;
  Clock::time_point due;
  std::uint64_t span = 0;  ///< request span id (traced phase)
  std::future<std::string> response;
};

/// Collects completions on its own thread: waits on the oldest request
/// with a short timeout, then sweeps every pending one, so a response
/// that overtakes an older one is still timed when it lands (to within
/// the 200 µs poll).
class Collector {
 public:
  Collector(Report& report, std::size_t pool_size)
      : report_(report), first_bytes_(pool_size) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(InFlight item) {
    {
      const std::lock_guard lock(mutex_);
      incoming_.push_back(std::move(item));
      ++outstanding_;
    }
    cv_.notify_all();
  }
  /// Blocks until fewer than `limit` requests are outstanding.
  void wait_below(std::size_t limit) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < limit; });
  }
  void drain() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
  void finish() {
    {
      const std::lock_guard lock(mutex_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  std::vector<double> latency_ms[3];
  std::vector<Clock::time_point> saturation_done;
  /// First response bytes seen per pool index (exact-repeat check).
  const std::vector<std::string>& first_bytes() const { return first_bytes_; }

 private:
  void loop() {
    std::list<InFlight> pending;
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        if (pending.empty()) {
          cv_.wait(lock, [&] { return done_ || !incoming_.empty(); });
          if (incoming_.empty()) return;  // done_ and nothing in flight
        }
        while (!incoming_.empty()) {
          pending.push_back(std::move(incoming_.front()));
          incoming_.pop_front();
        }
      }
      (void)pending.front().response.wait_for(std::chrono::microseconds(200));
      const auto now = Clock::now();
      std::size_t finished = 0;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        complete(*it, now);
        it = pending.erase(it);
        ++finished;
      }
      if (finished != 0) {
        {
          const std::lock_guard lock(mutex_);
          outstanding_ -= finished;
        }
        cv_.notify_all();
      }
    }
  }

  void complete(InFlight& item, Clock::time_point now) {
    latency_ms[item.phase].push_back(ms_between(item.due, now));
    if (item.phase == kSaturation) saturation_done.push_back(now);
    std::string bytes = item.response.get();
    bool ok = false;
    {
      Span span("client.decode", item.id, item.span);
      try {
        const auto frame = svc::decode_frame(bytes);
        ok = frame.type == svc::FrameType::FlowResponse;
        if (ok) (void)svc::flow_result_from_json(svc::Json::parse(frame.payload));
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (item.span != 0) {
      Tracer::get().record({"serve.request", item.span, 0, item.id, item.due,
                            Clock::now()});
    }
    std::string& first = first_bytes_[item.id];
    if (ok && first.empty()) first = bytes;
    report_.op(ok && bytes == first,
               ok ? "exact repeat answered with different bytes"
                  : "response is not a decodable FlowResponse");
  }

  Report& report_;
  std::vector<std::string> first_bytes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InFlight> incoming_;
  std::size_t outstanding_ = 0;
  bool done_ = false;
  std::thread thread_;  // last: started after every member it uses
};

struct PhaseResult {
  double p50[2] = {0, 0};
  double p99[2] = {0, 0};
  std::size_t n[2] = {0, 0};
  double saturation_rps = 0.0;
  std::vector<double> cycle_rps;  ///< saturation rate of each cycle
  std::vector<double> late_ms;
};

/// Per cycle: the light and heavy open-loop phases, a drain, then (unless
/// traced) the closed-loop saturation window and another drain.
PhaseResult drive(svc::YieldServer& server, const Workload& w,
                  const Options& opts, bool traced, Collector& collector) {
  PhaseResult out;
  const auto send = [&](std::size_t id, Phase phase, Clock::time_point due) {
    const std::uint64_t span = traced ? Tracer::get().next_id() : 0;
    std::string frame;
    {
      Span s("client.encode", id, span);
      frame = svc::encode_flow_request(w.pool[id]);
    }
    InFlight item{id, phase, due, span, {}};
    {
      Span s("server.submit", id, span);
      item.response = server.submit(std::move(frame));
    }
    collector.push(std::move(item));
  };
  const auto outstanding =
      static_cast<std::size_t>(cfg_num(opts.config, "saturation_outstanding"));
  const auto sat_window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(w.saturation_s));
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  std::size_t next = 0;
  std::size_t sat_i = 0;
  for (std::size_t c = 0; c < w.cycles; ++c) {
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (; next < w.schedule.size() && w.schedule[next].cycle == c; ++next) {
      const Arrival& a = w.schedule[next];
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(a.offset));
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(ms_since(due));
      send(a.id, a.phase, due);
    }
    collector.drain();
    if (traced) continue;
    const auto start = Clock::now();
    const auto end = start + sat_window;
    while (Clock::now() < end) {
      collector.wait_below(outstanding);
      send(w.saturation_ids[sat_i++ % w.saturation_ids.size()], kSaturation,
           Clock::now());
    }
    collector.drain();
    windows.emplace_back(start, end);
  }
  // Completions per saturation window: a cycle's rate, and the pooled rate.
  std::size_t in_windows = 0;
  for (const auto& [start, end] : windows) {
    const auto n = std::count_if(
        collector.saturation_done.begin(), collector.saturation_done.end(),
        [&](Clock::time_point t) { return t >= start && t <= end; });
    out.cycle_rps.push_back(static_cast<double>(n) / w.saturation_s);
    in_windows += static_cast<std::size_t>(n);
  }
  if (!windows.empty()) {
    out.saturation_rps = static_cast<double>(in_windows) /
                         (w.saturation_s * static_cast<double>(windows.size()));
  }
  for (const Phase p : {kLight, kHeavy}) {
    out.p50[p] = quantile(collector.latency_ms[p], 0.50);
    out.p99[p] = quantile(collector.latency_ms[p], 0.99);
    out.n[p] = collector.latency_ms[p].size();
  }
  return out;
}

/// Server with default options but `n_threads` compute threads, every
/// corner warmed by one request.
std::unique_ptr<svc::YieldServer> warm_server(const Workload& w,
                                              std::size_t pool_size,
                                              unsigned n_threads) {
  svc::ServerOptions options;
  options.n_threads = n_threads;
  auto server = std::make_unique<svc::YieldServer>(options);
  server->start();
  for (std::size_t c = 0; c < w.corners; ++c) {
    (void)server->submit(svc::encode_flow_request(w.pool[c * pool_size])).get();
  }
  return server;
}

}  // namespace

void run_serve_zipf(const Options& opts, Report& report) {
  const double measured = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Workload w = generate(opts, measured);
  const auto pool_size =
      static_cast<std::size_t>(cfg_num(opts.config, "pool_size"));
  const auto server_threads =
      static_cast<unsigned>(cfg_num(opts.config, "server_threads"));

  std::unique_ptr<svc::YieldServer> server;
  const double setup_ms =
      median_ms(static_cast<int>(cfg_num(opts.config, "setup_reps")), [&] {
        server.reset();
        server = warm_server(w, pool_size, server_threads);
      });

  PhaseResult run;
  {
    Collector collector(report, w.pool.size());
    run = drive(*server, w, opts, false, collector);
    collector.finish();

    // Determinism contract: a deterministic sample of the open-loop
    // requests, resubmitted one at a time, answers byte for byte what
    // the loaded server answered.
    std::set<std::size_t> scheduled;
    for (const Arrival& a : w.schedule) scheduled.insert(a.id);
    const auto every = std::max<std::size_t>(
        1, scheduled.size() /
               static_cast<std::size_t>(cfg_num(opts.config, "solo_checks")));
    std::size_t k = 0;
    for (const std::size_t id : scheduled) {
      if (k++ % every != 0 || collector.first_bytes()[id].empty()) continue;
      const auto solo = server->submit(svc::encode_flow_request(w.pool[id])).get();
      report.op(solo == collector.first_bytes()[id],
                "solo resubmission differs from the loaded response");
    }
  }

  // Exact-repeat share of the open-loop schedule (a pure function of the
  // seed; the saturation phase's length depends on the server's speed).
  std::set<std::size_t> seen;
  std::size_t repeats = 0;
  for (const Arrival& a : w.schedule) repeats += !seen.insert(a.id).second;
  const double dup_share =
      static_cast<double>(repeats) / static_cast<double>(w.schedule.size());

  report.e2e("setup_s", setup_ms / 1000.0, "s");
  report.e2e("throughput_per_s", run.saturation_rps, "1/s");
  report.e2e("latency_ms", run.p50[kHeavy], "ms");
  report.e2e("latency_ms.base", run.p50[kLight], "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.named("lat_p50_ms.light", run.p50[kLight], "ms");
  report.named("lat_p99_ms.light", run.p99[kLight], "ms");
  report.named("lat_p50_ms.heavy", run.p50[kHeavy], "ms");
  report.named("lat_p99_ms.heavy", run.p99[kHeavy], "ms");
  report.named("saturation_rps", run.saturation_rps, "1/s");
  report.named("saturation_rps.cycle_min",
               *std::min_element(run.cycle_rps.begin(), run.cycle_rps.end()),
               "1/s");
  report.named("saturation_rps.cycle_max",
               *std::max_element(run.cycle_rps.begin(), run.cycle_rps.end()),
               "1/s");
  report.input("samples.light", static_cast<double>(run.n[kLight]));
  report.input("samples.heavy", static_cast<double>(run.n[kHeavy]));
  report.input("offered_rps.light", cfg_num(opts.config, "light_rps"));
  report.input("offered_rps.heavy", cfg_num(opts.config, "heavy_rps"));
  report.input("saturation_outstanding",
               cfg_num(opts.config, "saturation_outstanding"));
  report.input("corners", static_cast<double>(w.corners));
  report.input("zipf_s", cfg_num(opts.config, "zipf_s"));
  report.input("serve.dup_share", dup_share);
  if (!opts.trace) return;

  report.layer("gen.late_ms.p99", quantile(run.late_ms, 0.99), "ms");
  report.layer("gen.late_ms.max",
               *std::max_element(run.late_ms.begin(), run.late_ms.end()), "ms");
  report.layer("serve.dup_share", dup_share, "ratio");
  report.layer("session.sessions_built",
               static_cast<double>(server->stats().sessions_built), "count");

  server->stop();

  // The traced replay runs the open-loop phases only, on a fresh server,
  // so the server's histograms describe the load the latency metrics see
  // (saturation traffic would swamp them).
  server = warm_server(w, pool_size, server_threads);
  Tracer::get().enable(true);
  PhaseResult traced;
  {
    Collector collector(report, w.pool.size());
    traced = drive(*server, w, opts, true, collector);
  }
  Tracer::get().enable(false);
  report.layer("trace.overhead_pct",
               100.0 * (traced.p50[kHeavy] - run.p50[kHeavy]) /
                   run.p50[kHeavy],
               "%");
  record_server_rows(*server, report);
  server->stop();

  ProbeInputs inputs;
  for (const Arrival& a : w.schedule) inputs.requests.push_back(w.pool[a.id]);
  inputs.own_server = true;
  probe_layers(opts, inputs, report);
}

}  // namespace perfbench
