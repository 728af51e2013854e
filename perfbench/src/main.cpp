// perfbench — the repository benchmark program.
//
//   perfbench --workload <flow_cold|serve_zipf|campaign_corners>
//             --seed <n> --seconds <s> --trace <0|1>
//             --config <workloads.json> --work-dir <dir>
//
// Runs one workload for --seconds, checks its outputs, and prints as the
// last line of stdout {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer rows with --trace 1.
// A human-readable report (host/build stamp, the named figures, the layer
// budget) goes to stderr; the stamp, every figure and the spans are also
// written under --work-dir. Exits 1 when any output check fails, 2 on bad
// usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "kernels/dispatch.h"
#include "service/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace svc = cny::service;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read config '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Number token with every digit the double carries.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string out;
    for (const char* flag : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
      if ((" " + line + " ").find(std::string(" ") + flag + " ") !=
          std::string::npos) {
        out += out.empty() ? flag : std::string(",") + flag;
      }
    }
    return out;
  }
  return "unknown";
}

svc::Json stamp(const svc::Json& serve_params) {
  svc::Json s = svc::Json::object();
  s.set("nproc", svc::Json::number(
                     std::uint64_t{std::thread::hardware_concurrency()}));
  s.set("cpu_flags", svc::Json::string(cpu_flags()));
  s.set("CNY_SIMD", svc::Json::boolean(cny::kernels::simd_compiled()));
  s.set("simd_backend", svc::Json::string(cny::kernels::backend_name()));
#ifdef CNY_NO_OBS
  s.set("CNY_OBS", svc::Json::boolean(false));
#else
  s.set("CNY_OBS", svc::Json::boolean(true));
#endif
  s.set("build_type", svc::Json::string(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  s.set("ndebug", svc::Json::boolean(true));
#else
  s.set("ndebug", svc::Json::boolean(false));
#endif
  s.set("offered_rps.light",
        svc::Json::number(cfg_num(serve_params, "light_rps")));
  s.set("offered_rps.heavy",
        svc::Json::number(cfg_num(serve_params, "heavy_rps")));
  return s;
}

void print_table(const char* title, const std::vector<Metric>& rows) {
  if (rows.empty()) return;
  std::cerr << "-- " << title << "\n";
  for (const auto& m : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "   %-38s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cerr << line;
  }
}

std::string metrics_json(const std::vector<Metric>& rows) {
  std::string out = "{";
  for (const auto& m : rows) {
    if (out.size() > 1) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + num(m.value) + ",\"unit\":\"" +
           m.unit + "\"}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --config <file> --work-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string config_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opts.workload = value;
    else if (flag == "--seed") opts.seed = std::stoull(value);
    else if (flag == "--seconds") opts.seconds = std::stod(value);
    else if (flag == "--trace") opts.trace = value == "1";
    else if (flag == "--config") config_path = value;
    else if (flag == "--work-dir") opts.work_dir = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1 || config_path.empty() || opts.work_dir.empty() ||
      !(opts.seconds > 0.0)) {
    return usage("missing or malformed arguments");
  }

  Report report;
  svc::Json run_stamp;
  try {
    const svc::Json config = svc::Json::parse(read_text(config_path));
    const svc::Json* workload = config.at("workloads").find(opts.workload);
    if (workload == nullptr) return usage("unknown workload");
    opts.config = workload->at("params");
    run_stamp = stamp(config.at("workloads").at("serve_zipf").at("params"));
    std::filesystem::create_directories(opts.work_dir);

    std::cerr << "perfbench " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << "\nstamp " << run_stamp.dump() << "\n";
    if (!run_stamp.at("ndebug").as_bool() ||
        std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "\n!!! WARNING: not a Release build (" PERFBENCH_BUILD_TYPE
                   ") - timings are not comparable !!!\n\n";
    }

    if (opts.workload == "flow_cold") run_flow_cold(opts, report);
    else if (opts.workload == "serve_zipf") run_serve_zipf(opts, report);
    else if (opts.workload == "campaign_corners") run_campaign_corners(opts, report);
    else return usage("workload has no implementation");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }

  const auto& rows = opts.trace ? report.layers() : report.e2e();
  for (const auto& m : rows) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  print_table("end-to-end (contract)", report.e2e());
  print_table("end-to-end (named)", report.named());
  print_table("recorded inputs", report.inputs());
  print_table("per-layer rows", report.layers());
  const auto spans = Tracer::get().records();
  if (!spans.empty()) {
    std::vector<Metric> self;
    for (const auto& [layer, ms] : self_ms_by_layer(spans)) {
      self.push_back({layer, ms, "ms"});
    }
    print_table("self time by layer over every traced span", self);
    Tracer::get().write(opts.work_dir / (opts.workload + "-seed" +
                                         std::to_string(opts.seed) +
                                         ".trace.jsonl"));
  }
  std::cerr << "-- attempted " << report.attempted() << ", failed "
            << report.failed() << ", fail_ratio "
            << static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, report.attempted()))
            << "\n";
  for (const auto& p : report.problems()) std::cerr << "   FAILED: " << p << "\n";

  const std::string result =
      std::string("{\"correct\":") + (report.correct() ? "true" : "false") +
      ",\"attempted\":" + std::to_string(report.attempted()) +
      ",\"failed\":" + std::to_string(report.failed()) +
      ",\"metrics\":" + metrics_json(rows) + "}";
  {
    std::ofstream out(opts.work_dir / (opts.workload + "-seed" +
                                       std::to_string(opts.seed) + "-trace" +
                                       std::to_string(int(opts.trace)) +
                                       ".json"));
    out << "{\"stamp\":" << run_stamp.dump()
        << ",\"end_to_end\":" << metrics_json(report.e2e())
        << ",\"named\":" << metrics_json(report.named())
        << ",\"inputs\":" << metrics_json(report.inputs())
        << ",\"per_layer\":" << metrics_json(report.layers())
        << ",\"result\":" << result << "}\n";
  }
  std::cout << "stamp " << run_stamp.dump() << "\n" << result << std::endl;
  return report.correct() ? 0 : 1;
}
