// Yield-service benchmarks over the loopback transport — the full protocol
// path (frame, decode, validate, coalesce, evaluate, encode) with no
// socket, so the numbers isolate the serving layer itself.
//
// The headline pair is an 8-client burst:
//   BM_ServiceSequentialClients — the 8 requests issued one at a time, each
//     paying its own dispatch cycle (what 8 *uncoordinated* processes
//     running their own flows would look like, minus warm-up);
//   BM_ServiceCoalescedBurst    — the same 8 requests submitted together,
//     coalesced by the server into group evaluations on the shared warm
//     model. Must be at least as fast (the CI bench-smoke job asserts it).
//
// BM_ServiceSessionWarmup prices what the session cache amortises: the
// library + model + interpolant install every client would otherwise pay
// cold, plus one p_F read that fills the table knots of its segment.
// BM_ServicePingRoundTrip is the protocol-overhead floor.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "obs/resource.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_cache.h"

namespace {

using namespace cny;

constexpr std::size_t kBurst = 8;
constexpr std::size_t kMcSamples = 1000;

service::FlowRequest burst_request(std::uint64_t seed) {
  service::FlowRequest request;
  request.params.mc_samples = kMcSamples;
  request.params.seed = seed;
  return request;
}

/// One warm server shared by the throughput benchmarks: the session is
/// built (and the p_F memo warmed) before the first timed iteration, so
/// sequential vs coalesced compare pure serving behaviour.
service::YieldServer& warm_server() {
  static service::YieldServer* server = [] {
    auto* s = new service::YieldServer(service::ServerOptions{});
    s->start();
    service::YieldClient client(*s);
    (void)client.call(burst_request(1));
    return s;
  }();
  return *server;
}

void BM_ServiceSequentialClients(benchmark::State& state) {
  auto& server = warm_server();
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= kBurst; ++seed) {
      const std::string response =
          server.submit(service::encode_flow_request(burst_request(seed)))
              .get();
      benchmark::DoNotOptimize(response.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ServiceSequentialClients)->Unit(benchmark::kMillisecond);

void BM_ServiceCoalescedBurst(benchmark::State& state) {
  auto& server = warm_server();
  for (auto _ : state) {
    std::vector<std::future<std::string>> burst;
    burst.reserve(kBurst);
    for (std::uint64_t seed = 1; seed <= kBurst; ++seed) {
      burst.push_back(
          server.submit(service::encode_flow_request(burst_request(seed))));
    }
    for (auto& response : burst) {
      benchmark::DoNotOptimize(response.get().size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ServiceCoalescedBurst)->Unit(benchmark::kMillisecond);

void BM_ServicePingRoundTrip(benchmark::State& state) {
  auto& server = warm_server();
  const std::string ping = service::encode_frame(service::FrameType::Ping, "{}");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.submit(ping).get().size());
  }
}
BENCHMARK(BM_ServicePingRoundTrip)->Unit(benchmark::kMicrosecond);

// The cost N clients share instead of each paying: generate the library,
// build the FailureModel, warm the solver-bracket interpolant.
void BM_ServiceSessionWarmup(benchmark::State& state) {
  const service::SessionKey key = service::session_key({});
  for (auto _ : state) {
    service::SessionCache cache(1);
    benchmark::DoNotOptimize(cache.acquire(key)->model().p_f(100.0));
  }
}
BENCHMARK(BM_ServiceSessionWarmup)->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN() so the telemetry-overhead CI gate can run the
// identical benchmarks with the background resource sampler active:
// CNY_SAMPLE_MS=<interval> starts an obs::ResourceSampler for the whole
// run (unset or 0 = plain run, byte-for-byte the old BENCHMARK_MAIN).
int main(int argc, char** argv) {
  std::optional<cny::obs::ResourceSampler> sampler;
  if (const char* interval = std::getenv("CNY_SAMPLE_MS")) {
    const unsigned ms = static_cast<unsigned>(std::strtoul(interval, nullptr, 10));
    if (ms > 0) {
      cny::obs::ResourceSampler::Options options;
      options.interval_ms = ms;
      sampler.emplace(options);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
