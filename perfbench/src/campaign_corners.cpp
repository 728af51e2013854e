// campaign_corners: a direct-path campaign that crosses more process
// corners than the runner's session cache holds, corners the fastest axis,
// written to a JSONL store, then resumed over the finished store. The
// session cache misses and rebuilds (the opposite of serve_zipf), so
// interpolant builds, chunk grouping, LRU eviction and store appends carry
// the cost. Sweeps repeat, each with a fresh runner and store, until the
// run's time is up.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "common.h"
#include "service/session_cache.h"
#include "yield/flow.h"

namespace perfbench {

namespace {

namespace cp = cny::campaign;
namespace svc = cny::service;

cp::CampaignSpec make_spec(const Options& opts) {
  const auto& cfg = opts.config;
  cp::CampaignSpec spec;
  spec.name = "campaign_corners";
  spec.base = paper_request();
  spec.base.params.mc_samples =
      static_cast<std::size_t>(cfg_num(cfg, "mc_samples"));
  const std::uint64_t s0 = opts.seed * 100 + 1;
  const auto seeds = static_cast<std::uint64_t>(cfg_num(cfg, "seeds"));
  // Row-major, last axis fastest: the two corner axes come last, so
  // consecutive points (and every chunk) cycle through all the corners.
  spec.axes = {
      {"yield", "yield", cfg.at("yields").as_string()},
      {"seed", "seed",
       std::to_string(s0) + ":1:" + std::to_string(s0 + seeds - 1)},
      {"pitch_cv", "process.pitch_cv", cfg.at("pitch_cv").as_string()},
      {"p_metallic", "process.p_metallic", cfg.at("p_metallic").as_string()},
  };
  return spec;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Sweeps {
  std::vector<double> first_ms;   ///< per sweep: wall to the first checkpoint
  std::vector<double> resume_ms;  ///< per resume pass (store load + skip)
  std::vector<double> load_ms;    ///< ResultStore(path) of a finished store
  std::vector<double> gap_ms;     ///< harness time between sweeps
  std::vector<double> points_per_s;  ///< per sweep: evaluated / wall
  std::uint64_t sessions_built = 0;  ///< per sweep (checked equal)
  std::size_t sweeps = 0;            ///< timed sweeps
  std::filesystem::path first_store;
};

/// One untimed warm-up sweep, then timed sweeps while another one still
/// fits in `seconds` (at least two). Every sweep's store is checked
/// against the warm-up's.
///
/// A resume pass (store load + a run that skips every point) is well under
/// a millisecond, and the host's speed drifts over tenths of a second, so
/// the passes are timed in short bursts spread over the run: one over the
/// finished warm-up store at every checkpoint of a timed sweep (its time
/// taken out of the sweep's wall) and one over each sweep's own store
/// after it. The first pass of a burst is checked, not timed.
/// `at_checkpoint` also runs at every checkpoint of a timed sweep, outside
/// the sweep's timings.
Sweeps run_sweeps(const Options& opts, const std::vector<cp::CompiledPoint>& points,
                  double seconds, const char* tag, Report& report,
                  const std::function<void()>& at_checkpoint) {
  const auto& cfg = opts.config;
  const cp::RunnerOptions resume_runner;
  cp::RunnerOptions runner;
  runner.checkpoint_every = static_cast<std::size_t>(cfg_num(cfg, "chunk"));
  runner.cache_capacity = static_cast<std::size_t>(cfg_num(cfg, "cache"));
  runner.n_threads = static_cast<unsigned>(cfg_num(cfg, "threads"));
  const int burst = static_cast<int>(cfg_num(cfg, "resume_burst"));
  Sweeps out;
  const auto resume_burst = [&](const std::filesystem::path& store_path,
                                bool timed) {
    for (int pass = 0; pass <= burst; ++pass) {
      Span span("campaign.resume");
      const auto t0 = Clock::now();
      cp::ResultStore store(store_path.string());
      const double load_ms = ms_since(t0);
      const auto again = cp::run_campaign(points, store, resume_runner);
      const double resume_ms = ms_since(t0);
      if (timed && pass > 0) {
        out.load_ms.push_back(load_ms);
        out.resume_ms.push_back(resume_ms);
      }
      report.op(again.evaluated == 0 && again.skipped == points.size(),
                "resume pass over a finished store evaluated points");
    }
  };

  auto deadline = Clock::now();
  auto last_end = Clock::now();
  double last_sweep_s = 0.0;
  for (std::size_t sweep = 0;
       out.sweeps < 2 ||
       Clock::now() + std::chrono::duration<double>(last_sweep_s) < deadline;
       ++sweep) {
    const bool timed = sweep > 0;
    const auto path = opts.work_dir / (std::string(tag) + "_sweep" +
                                       std::to_string(sweep) + ".jsonl");
    std::filesystem::remove(path);
    Clock::time_point start;
    bool first = true;
    double paused_ms = 0.0;
    runner.progress = [&](std::size_t, std::size_t) {
      if (!timed) return;
      const auto now = Clock::now();
      if (first) out.first_ms.push_back(ms_between(start, now));
      first = false;
      resume_burst(out.first_store, true);
      at_checkpoint();
      paused_ms += ms_since(now);
    };
    cp::CampaignStats stats;
    {
      cp::ResultStore store(path.string());
      if (sweep > 1) out.gap_ms.push_back(ms_since(last_end));
      Span span("campaign.run");
      start = Clock::now();
      stats = cp::run_campaign(points, store, runner);
      last_sweep_s = (ms_since(start) - paused_ms) / 1000.0;
      last_end = Clock::now();
      for (const auto& rec : store.records()) {
        report.op(rec.error_code.empty() && !rec.result_json.empty(),
                  "campaign point " + std::to_string(rec.index) +
                      " failed: " + rec.error_code);
      }
    }
    report.check(stats.evaluated == points.size() && stats.failed == 0,
                 "sweep did not evaluate every point");
    if (!timed) {
      out.sessions_built = stats.sessions_built;
      out.first_store = path;
    } else {
      ++out.sweeps;
      out.points_per_s.push_back(static_cast<double>(stats.evaluated) /
                                 last_sweep_s);
      report.check(stats.sessions_built == out.sessions_built,
                   "sessions built differ between identical sweeps");
      report.check(read_file(path) == read_file(out.first_store),
                   "store bytes differ between identical sweeps");
    }
    resume_burst(path, timed);
    if (timed) std::filesystem::remove(path);
    if (!timed) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
      last_end = Clock::now();
    }
  }
  return out;
}

/// One sampled record per corner equals an independent solo evaluation on
/// a freshly warmed session.
void check_solo(const std::vector<cp::CompiledPoint>& points,
                const cp::ResultStore& store, Report& report) {
  std::set<std::string> corners;
  svc::SessionCache cache(1);
  for (const auto& point : points) {
    const auto key = svc::session_key(point.request);
    if (!corners.insert(key.canonical()).second) continue;
    const auto session = cache.acquire(key);
    const auto design = session->design(point.request.design_instances);
    const auto result = cny::yield::run_flow(session->library(), *design,
                                             session->model(),
                                             point.request.params);
    const cp::StoreRecord* rec = store.find(point.key);
    report.op(rec != nullptr &&
                  rec->result_json == svc::to_json(result).dump(),
              "stored record differs from a solo evaluation (" +
                  key.canonical() + ")");
  }
}

}  // namespace

void run_campaign_corners(const Options& opts, Report& report) {
  const auto spec = make_spec(opts);
  // Set-up is campaign::compile of the spec, timed in short bursts (one
  // before the sweeps, one at every checkpoint of a timed untraced sweep)
  // for the same reason as the resume passes; setup_s is their median.
  std::vector<double> setup_samples;
  const int burst = static_cast<int>(cfg_num(opts.config, "setup_burst"));
  const auto compile_burst = [&] {
    for (int i = 0; i < burst; ++i) {
      const auto t0 = Clock::now();
      { const auto compiled = cp::compile(spec); }
      setup_samples.push_back(ms_since(t0));
    }
  };
  compile_burst();
  const std::vector<cp::CompiledPoint> points = cp::compile(spec);

  const double measured = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Sweeps run = run_sweeps(opts, points, measured, "untraced", report,
                                compile_burst);
  const double setup_ms = median(setup_samples);
  {
    const cp::ResultStore store(run.first_store.string());
    check_solo(points, store, report);
  }
  std::filesystem::remove(run.first_store);

  std::set<std::string> corners;
  for (const auto& p : points) {
    corners.insert(svc::session_key(p.request).canonical());
  }
  const double points_per_s = median(run.points_per_s);
  // Resume passes come in two speeds that hold for a whole burst (about
  // 0.3 and 0.42 ms on the reference host) and the share of fast bursts
  // changes from run to run, so the median hops between them; the p90
  // stays in the slow one.
  const double resume_p90_ms = quantile(run.resume_ms, 0.90);
  report.e2e("setup_s", setup_ms / 1000.0, "s");
  report.e2e("throughput_per_s", points_per_s, "1/s");
  report.e2e("latency_ms", median(run.first_ms), "ms");
  report.e2e("latency_ms.base", resume_p90_ms, "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.named("points_per_s", points_per_s, "1/s");
  report.named("campaign.first_checkpoint_ms", median(run.first_ms), "ms");
  report.named("campaign.resume_ms", median(run.resume_ms), "ms");
  report.named("campaign.resume_ms.p90", resume_p90_ms, "ms");
  report.input("resume_passes", static_cast<double>(run.resume_ms.size()));
  const double chunk = cfg_num(opts.config, "chunk");
  report.input("points", static_cast<double>(points.size()));
  report.input("corners", static_cast<double>(corners.size()));
  report.input("chunk", chunk);
  report.input("cache", cfg_num(opts.config, "cache"));
  report.input("points_per_corner_per_chunk",
               chunk / static_cast<double>(corners.size()));
  report.input("sweeps", static_cast<double>(run.sweeps));
  report.input("setups", static_cast<double>(setup_samples.size()));
  if (!opts.trace) return;

  report.layer("gen.late_ms.p99", quantile(run.gap_ms, 0.99), "ms");
  report.layer("gen.late_ms.max",
               *std::max_element(run.gap_ms.begin(), run.gap_ms.end()), "ms");
  report.layer("serve.dup_share", 0.0, "ratio");  // every point distinct
  report.layer("session.sessions_built",
               static_cast<double>(run.sessions_built), "count");
  report.layer("campaign.sessions_built",
               static_cast<double>(run.sessions_built), "count");
  report.layer("campaign.chunks",
               std::ceil(static_cast<double>(points.size()) / chunk), "count");
  report.layer("campaign.compile_ms", setup_ms, "ms");
  report.layer("campaign.resume_ms", median(run.resume_ms), "ms");
  report.layer("store.load_ms", median(run.load_ms), "ms");

  Tracer::get().enable(true);
  const Sweeps traced =
      run_sweeps(opts, points, measured, "traced", report, [] {});
  Tracer::get().enable(false);
  std::filesystem::remove(traced.first_store);
  const double traced_ms = median(traced.first_ms);
  const double untraced_ms = median(run.first_ms);
  report.layer("trace.overhead_pct",
               100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");

  ProbeInputs inputs;
  for (const auto& p : points) inputs.requests.push_back(p.request);
  inputs.own_campaign = true;
  probe_layers(opts, inputs, report);
}

}  // namespace perfbench
