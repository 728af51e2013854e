// Layer probes of the traced run. Every row times one public entry point
// of one layer, called from here on the workload's own inputs, so the rows
// of each workload explain its end-to-end numbers:
//
//   yield/layout  run_flow replayed step by step (solve_w_min x4,
//                 window_offsets, union_conditional_mc, align_active x2);
//                 the replay must reproduce run_flow's W_min bit for bit
//   device        p_f_exact, p_f_exact_batch, enable_interpolation on a
//                 cold model at the workload's first corner
//   session       SessionCache::acquire misses
//   client/wire   encode_flow_request, decode_frame + flow_result_from_json,
//                 TCP ping
//   store         ResultStore::append / load on a scratch store
//   server        a loopback burst of the workload's requests (skipped when
//                 the workload's own run already recorded server rows)
//   campaign      compile + run_campaign + resume over the workload's first
//                 request swept over seeds (skipped likewise)

#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <set>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "celllib/generator.h"
#include "common.h"
#include "layout/aligned_active.h"
#include "layout/row_placement.h"
#include "netlist/design_generator.h"
#include "rng/engine.h"
#include "service/client.h"
#include "service/server.h"
#include "service/session_cache.h"
#include "yield/empty_window.h"
#include "yield/flow.h"
#include "yield/row_model.h"
#include "yield/wmin_solver.h"

namespace perfbench {

namespace {

namespace svc = cny::service;
namespace yl = cny::yield;

constexpr int kReps = 3;

/// Runs `fn` inside a span and adds its wall time to `acc_ms`.
template <typename Fn>
auto timed(const char* name, double& acc_ms, Fn&& fn) {
  Span span(name);
  const auto t0 = Clock::now();
  auto out = fn();
  acc_ms += ms_since(t0);
  return out;
}

struct Replay {
  double solve_ms = 0.0;
  double mc_ms = 0.0;
  double offsets_ms = 0.0;
  double align_ms = 0.0;
  double solve_iters = 0.0;
  std::vector<double> w_min;  ///< per strategy, run_flow's order
};

/// run_flow's public steps for the open-only flow (yield/flow.cpp), in the
/// same order on the same model so memo state evolves identically.
Replay replay_flow(const cny::celllib::Library& lib,
                   const cny::netlist::Design& design,
                   const cny::device::FailureModel& model,
                   const yl::FlowParams& params) {
  Span span("flow.replay");
  Replay r;
  auto spectrum = yl::scale_spectrum(
      design.width_spectrum(), 1.0,
      params.chip_transistors / double(design.n_transistors()));
  yl::RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  const double mrmin = yl::m_r_min(rows);
  const auto solve = [&](double relaxation) {
    yl::WminRequest req;
    req.yield_desired = params.yield_desired;
    req.relaxation = relaxation;
    const auto solved = timed("yield.solve_w_min", r.solve_ms, [&] {
      return yl::solve_w_min(spectrum, model, req);
    });
    r.solve_iters += solved.iterations;
    r.w_min.push_back(solved.w_min);
    return solved;
  };
  const auto align = [&](double w_min, int rows_per_polarity) {
    cny::layout::AlignOptions options;
    options.w_min = w_min;
    options.rows_per_polarity = rows_per_polarity;
    (void)timed("layout.align_active", r.align_ms, [&] {
      return cny::layout::align_active(lib, options, params.active_spacing);
    });
  };

  const auto base = solve(1.0);
  const auto offsets = timed("layout.window_offsets", r.offsets_ms, [&] {
    return cny::layout::window_offsets(design, base.w_min);
  });
  std::vector<cny::geom::Interval> windows;
  for (const auto& o : offsets) windows.push_back({o.y, o.y + base.w_min});
  const double p_f = model.p_f(base.w_min);
  const double lambda_s = -std::log(p_f) / base.w_min;
  cny::rng::Xoshiro256 rng(cny::rng::derive_seed(params.seed, 0xF10));
  const cny::exec::McPolicy policy{params.n_threads, params.mc_streams};
  const double p_rf = timed("yield.union_mc", r.mc_ms, [&] {
                        return yl::union_conditional_mc(
                            lambda_s, windows, params.mc_samples, rng, policy);
                      }).estimate;
  solve(yl::relaxation_factor(p_rf, p_f, rows));
  align(solve(mrmin).w_min, 1);
  align(solve(mrmin / 2.0).w_min, 2);
  return r;
}

std::vector<double> result_widths(const yl::FlowResult& result) {
  std::vector<double> out;
  for (const auto& s : result.strategies) out.push_back(s.w_min);
  return out;
}

std::vector<svc::FlowRequest> distinct(
    const std::vector<svc::FlowRequest>& requests) {
  std::set<std::string> seen;
  std::vector<svc::FlowRequest> out;
  for (const auto& r : requests) {
    if (seen.insert(cny::campaign::canonical_request(r)).second) {
      out.push_back(r);
    }
  }
  return out;
}

/// The first `limit` distinct session keys, in workload order.
std::vector<svc::SessionKey> corners(
    const std::vector<svc::FlowRequest>& requests, std::size_t limit) {
  std::vector<svc::SessionKey> out;
  std::set<std::string> seen;
  for (const auto& r : requests) {
    const auto key = svc::session_key(r);
    if (out.size() < limit && seen.insert(key.canonical()).second) {
      out.push_back(key);
    }
  }
  return out;
}

void probe_flow(const ProbeInputs& in, Report& report,
                std::vector<double>& w_mins, std::string& response_frame) {
  const svc::FlowRequest& req = in.requests.front();
  yl::FlowParams params = req.params;
  params.n_threads = 0;

  // Cold: a fresh exact model per flow, as flow_cold runs. Warm: one
  // session, as the server and the campaign runner hold it.
  std::unique_ptr<cny::celllib::Library> lib;
  std::shared_ptr<const cny::netlist::Design> design;
  std::shared_ptr<const svc::Session> session;
  svc::SessionCache cache(1);
  if (in.cold) {
    lib = std::make_unique<cny::celllib::Library>(
        cny::celllib::make_nangate45_like());
    design = std::make_shared<const cny::netlist::Design>(
        cny::netlist::make_openrisc_like(*lib));
  } else {
    session = cache.acquire(svc::session_key(req));
    design = session->design(req.design_instances);
    // The first flow on a fresh session fills its exact-value memo; the
    // server's set-up pays that too, so it is not part of a warm flow.
    (void)yl::run_flow(session->library(), *design, session->model(), params);
  }
  const auto& l = in.cold ? *lib : session->library();
  std::optional<cny::device::FailureModel> fresh;
  const auto model = [&]() -> const cny::device::FailureModel& {
    if (!in.cold) return session->model();
    fresh.emplace(cold_model(req.process));
    return *fresh;
  };

  std::vector<double> flow_ms, solve_ms, mc_ms, offsets_ms, align_ms;
  double iters = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    yl::FlowResult result;
    {
      const auto& m = model();
      Span span("yield.run_flow");
      const auto t0 = Clock::now();
      result = yl::run_flow(l, *design, m, params);
      flow_ms.push_back(ms_since(t0));
    }
    const Replay r = replay_flow(l, *design, model(), params);
    solve_ms.push_back(r.solve_ms);
    mc_ms.push_back(r.mc_ms);
    offsets_ms.push_back(r.offsets_ms);
    align_ms.push_back(r.align_ms);
    iters = r.solve_iters;
    w_mins = r.w_min;
    report.check(result_widths(result) == r.w_min,
                 "replayed flow steps disagree with run_flow's W_min");
    response_frame = svc::encode_flow_response(result);
  }
  // What the step rows leave out (spectrum scaling, power penalties,
  // result assembly) is the residual.
  const double steps = median(solve_ms) + median(mc_ms) +
                       median(offsets_ms) + median(align_ms);
  const double wall = in.flow_wall_ms > 0.0 ? in.flow_wall_ms : median(flow_ms);
  report.layer("yield.run_flow_ms", median(flow_ms), "ms");
  report.layer("yield.solve_w_min_ms", median(solve_ms), "ms");
  report.layer("yield.solve_w_min_iters", iters, "count");
  report.layer("yield.union_mc_ms", median(mc_ms), "ms");
  report.layer("yield.mc_samples_per_s",
               1000.0 * static_cast<double>(params.mc_samples) / median(mc_ms),
               "1/s");
  report.layer("layout.window_offsets_ms", median(offsets_ms), "ms");
  report.layer("layout.align_active_ms", median(align_ms), "ms");
  report.layer("flow.residual_ms", wall - steps, "ms");
}

void probe_device(const ProbeInputs& in, const std::vector<double>& w_mins,
                  Report& report) {
  const svc::ProcessSpec& corner = in.requests.front().process;
  std::vector<double> scalar_us, batch_us, interp_ms;
  const auto lib = cny::celllib::make_nangate45_like();
  const auto design = cny::netlist::make_openrisc_like(lib);
  std::vector<double> widths;
  for (const auto& [w, count] : design.width_spectrum()) widths.push_back(w);
  for (int rep = 0; rep < kReps; ++rep) {
    {
      const auto model = cold_model(corner);
      for (const double w : w_mins) {
        Span span("device.p_f_exact");
        const auto t0 = Clock::now();
        (void)model.p_f_exact(w);
        scalar_us.push_back(1000.0 * ms_since(t0));
      }
    }
    {
      const auto model = cold_model(corner);
      Span span("device.p_f_exact_batch");
      const auto t0 = Clock::now();
      (void)model.p_f_exact_batch(widths);
      batch_us.push_back(1000.0 * ms_since(t0) /
                         static_cast<double>(widths.size()));
    }
    {
      const auto model = cold_model(corner);
      const yl::WminRequest bracket;
      Span span("device.enable_interpolation");
      const auto t0 = Clock::now();
      model.enable_interpolation(bracket.w_lo, bracket.w_hi, 65, 0);
      interp_ms.push_back(ms_since(t0));
    }
  }
  report.layer("device.pf_exact_us", median(scalar_us), "us");
  report.layer("device.pf_exact_batch_us_per_width", median(batch_us), "us");
  report.layer("device.interp_build_ms", median(interp_ms), "ms");
}

void probe_session(const ProbeInputs& in, Report& report) {
  const auto keys = corners(in.requests, 4);
  svc::SessionCache cache(keys.size());
  std::vector<double> warm_ms;
  for (const auto& key : keys) {
    Span span("session.acquire");
    const auto t0 = Clock::now();
    (void)cache.acquire(key);
    warm_ms.push_back(ms_since(t0));
  }
  report.layer("session.warm_ms", median(warm_ms), "ms");
}

void probe_client(const ProbeInputs& in, const std::string& response_frame,
                  Report& report) {
  const auto requests = distinct(in.requests);
  std::vector<double> encode_us, decode_us;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (const auto& r : requests) {
      Span span("client.encode_flow_request");
      (void)svc::encode_flow_request(r);
    }
    encode_us.push_back(1000.0 * ms_since(t0) /
                        static_cast<double>(requests.size()));
    const auto t1 = Clock::now();
    for (int i = 0; i < 16; ++i) {
      Span span("client.decode");
      const auto frame = svc::decode_frame(response_frame);
      (void)svc::flow_result_from_json(svc::Json::parse(frame.payload));
    }
    decode_us.push_back(1000.0 * ms_since(t1) / 16.0);
  }
  report.layer("client.encode_us", median(encode_us), "us");
  report.layer("client.decode_us", median(decode_us), "us");

  svc::ServerOptions options;
  options.listen = true;
  options.port = 0;
  svc::YieldServer server(options);
  server.start();
  svc::YieldClient client("127.0.0.1", server.port(), 10000);
  std::vector<double> ping_us;
  for (int i = 0; i < 64; ++i) {
    Span span("wire.tcp_ping");
    const auto t0 = Clock::now();
    (void)client.ping();
    ping_us.push_back(1000.0 * ms_since(t0));
  }
  server.stop();
  report.layer("wire.tcp_ping_us", median(ping_us), "us");
}

/// Records built from the workload's first request swept over seeds, so a
/// workload with a single distinct request still appends distinct keys.
std::vector<cny::campaign::StoreRecord> probe_records(
    const ProbeInputs& in, const std::string& response_frame) {
  const auto payload = svc::decode_frame(response_frame).payload;
  std::vector<cny::campaign::StoreRecord> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    svc::FlowRequest r = in.requests.front();
    r.params.seed += i;
    cny::campaign::StoreRecord rec;
    rec.key = cny::campaign::request_key(r);
    rec.index = i;
    rec.request_json = cny::campaign::canonical_request(r);
    rec.result_json = payload;
    out.push_back(std::move(rec));
  }
  return out;
}

void probe_store(const Options& opts, const ProbeInputs& in,
                 const std::string& response_frame, Report& report) {
  const auto path = opts.work_dir / "probe_store.jsonl";
  std::vector<double> append_us, load_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    std::filesystem::remove(path);
    {
      cny::campaign::ResultStore store(path.string());
      for (auto& rec : probe_records(in, response_frame)) {
        Span span("store.append");
        const auto t0 = Clock::now();
        store.append(std::move(rec));
        append_us.push_back(1000.0 * ms_since(t0));
      }
    }
    if (!in.own_campaign) {
      Span span("store.load");
      const auto t0 = Clock::now();
      const cny::campaign::ResultStore loaded(path.string());
      load_ms.push_back(ms_since(t0));
      report.check(loaded.size() == 64, "scratch store reloaded short");
    }
  }
  std::filesystem::remove(path);
  report.layer("store.append_us", median(append_us), "us");
  if (!in.own_campaign) report.layer("store.load_ms", median(load_ms), "ms");
}

void probe_server(const ProbeInputs& in, Report& report) {
  svc::YieldServer server;
  server.start();
  // Warm the workload's first (up to) four corners with their first
  // request, then send one burst of the workload's requests on those
  // corners, all in flight at once so the server coalesces them.
  std::set<std::string> warm;
  for (const auto& r : in.requests) {
    if (warm.size() < 4 && warm.insert(svc::session_key(r).canonical()).second) {
      (void)server.submit(svc::encode_flow_request(r)).get();
    }
  }
  std::vector<std::future<std::string>> burst;
  for (std::size_t i = 0; burst.size() < 32; ++i) {
    const auto& r = in.requests[i % in.requests.size()];
    if (warm.count(svc::session_key(r).canonical()) == 0) continue;
    Span span("server.submit");
    burst.push_back(server.submit(svc::encode_flow_request(r)));
  }
  for (auto& f : burst) {
    const auto frame = svc::decode_frame(f.get());
    report.op(frame.type == svc::FrameType::FlowResponse,
              "server probe answered with a non-response frame");
  }
  record_server_rows(server, report);
  server.stop();
}

void probe_campaign(const Options& opts, const ProbeInputs& in,
                    Report& report) {
  cny::campaign::CampaignSpec spec;
  spec.name = "probe";
  spec.base = in.requests.front();
  const std::uint64_t s0 = spec.base.params.seed;
  spec.axes.push_back({"seed", "seed",
                       std::to_string(s0) + ":1:" + std::to_string(s0 + 7)});
  std::vector<cny::campaign::CompiledPoint> points;
  const double compile_ms = median_ms(kReps, [&] {
    Span span("campaign.compile");
    points = cny::campaign::compile(spec);
  });
  const auto path = opts.work_dir / "probe_campaign.jsonl";
  std::filesystem::remove(path);
  cny::campaign::RunnerOptions runner;
  cny::campaign::CampaignStats stats;
  {
    cny::campaign::ResultStore store(path.string());
    Span span("campaign.run");
    stats = cny::campaign::run_campaign(points, store, runner);
  }
  report.op(stats.evaluated == points.size() && stats.failed == 0,
            "probe campaign did not evaluate every point");
  const double resume_ms = median_ms(kReps, [&] {
    Span span("campaign.resume");
    cny::campaign::ResultStore store(path.string());
    const auto again = cny::campaign::run_campaign(points, store, runner);
    report.op(again.evaluated == 0 && again.skipped == points.size(),
              "probe campaign resume re-evaluated points");
  });
  std::filesystem::remove(path);
  report.layer("campaign.compile_ms", compile_ms, "ms");
  report.layer("campaign.sessions_built",
               static_cast<double>(stats.sessions_built), "count");
  report.layer("campaign.chunks",
               std::ceil(static_cast<double>(points.size()) /
                         static_cast<double>(runner.checkpoint_every)),
               "count");
  report.layer("campaign.resume_ms", resume_ms, "ms");
}

}  // namespace

void record_server_rows(const svc::YieldServer& server, Report& report) {
  const auto stats = server.stats();
  const auto snapshot = svc::Json::parse(server.stats_json());
  const auto& hist = snapshot.at("histograms");
  const auto h = [&](const char* name, const char* field) {
    const svc::Json* entry = hist.find(name);
    return entry == nullptr ? 0.0 : entry->at(field).as_double();
  };
  report.layer("server.queue_wait_us.p50", h("queue_wait_us", "p50_us"), "us");
  report.layer("server.queue_wait_us.p95", h("queue_wait_us", "p95_us"), "us");
  report.layer("server.evaluate_us.p50", h("evaluate_us", "p50_us"), "us");
  report.layer("server.evaluate_us.p95", h("evaluate_us", "p95_us"), "us");
  report.layer("server.serialize_us.p50", h("serialize_us", "p50_us"), "us");
  report.layer("server.batch_size_mean",
               stats.batches == 0 ? 0.0
                                  : static_cast<double>(stats.batched_requests) /
                                        static_cast<double>(stats.batches),
               "count");
  report.layer("server.merged_kernel_hits",
               static_cast<double>(stats.merged_kernel_hits), "count");
  report.layer("server.overload_rejects",
               static_cast<double>(stats.overload_rejects), "count");
  report.layer("server.deadline_sheds",
               static_cast<double>(stats.deadline_sheds), "count");
  report.layer("server.errors", static_cast<double>(stats.errors), "count");
}

void probe_layers(const Options& opts, const ProbeInputs& in, Report& report) {
  Tracer::get().enable(true);
  std::vector<double> w_mins;
  std::string response_frame;
  probe_flow(in, report, w_mins, response_frame);
  probe_device(in, w_mins, report);
  probe_session(in, report);
  probe_client(in, response_frame, report);
  probe_store(opts, in, response_frame, report);
  if (!in.own_server) probe_server(in, report);
  if (!in.own_campaign) probe_campaign(opts, in, report);
  Tracer::get().enable(false);
}

}  // namespace perfbench
