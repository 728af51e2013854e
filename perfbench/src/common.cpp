#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/resource.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- Spans -----------------------------------------------------------------

namespace {
thread_local std::uint64_t t_open_span = 0;
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord record) {
  const std::lock_guard lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::records() const {
  const std::lock_guard lock(mutex_);
  return records_;
}

void Tracer::write(const std::filesystem::path& path) const {
  const auto spans = records();
  if (spans.empty()) return;
  const Clock::time_point origin =
      std::min_element(spans.begin(), spans.end(),
                       [](const SpanRecord& a, const SpanRecord& b) {
                         return a.start < b.start;
                       })
          ->start;
  std::ofstream out(path);
  for (const auto& s : spans) {
    const double ts = 1000.0 * ms_between(origin, s.start);
    const double dur = 1000.0 * ms_between(s.start, s.end);
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}}\n";
  }
}

Span::Span(const char* name, std::uint64_t request, std::uint64_t parent) {
  Tracer& tracer = Tracer::get();
  if (!tracer.on()) return;
  on_ = true;
  record_.name = name;
  record_.id = tracer.next_id();
  record_.parent = parent != 0 ? parent : t_open_span;
  record_.request = request;
  saved_parent_ = t_open_span;
  t_open_span = record_.id;
  record_.start = Clock::now();
}

Span::~Span() {
  if (!on_) return;
  record_.end = Clock::now();
  t_open_span = saved_parent_;
  Tracer::get().record(std::move(record_));
}

std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        kids.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += ms_between(s.start, s.end) - covered;
  }
  return out;
}

// --- Report ----------------------------------------------------------------

void Report::op(bool ok, const std::string& what) {
  const std::lock_guard lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (problems_.size() < 20) problems_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  const std::lock_guard lock(mutex_);
  checks_ok_ = false;
  if (problems_.size() < 20) problems_.push_back(what);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, value, unit});
}
void Report::named(const std::string& name, double value,
                   const std::string& unit) {
  named_.push_back({name, value, unit});
}
void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}
void Report::input(const std::string& name, double value) {
  inputs_.push_back({name, value, ""});
}

double peak_rss_mb() {
  return static_cast<double>(cny::obs::sample_resources().vm_hwm_kb) / 1024.0;
}

cny::service::FlowRequest paper_request() {
  cny::service::FlowRequest request;  // defaults are the paper's
  request.library = "nangate45";
  request.design_instances = 0;
  request.params.yield_desired = 0.90;
  request.params.chip_transistors = 1e8;
  return request;
}

cny::device::FailureModel cold_model(const cny::service::ProcessSpec& spec) {
  cny::cnt::ProcessParams process;
  process.p_metallic = spec.p_metallic;
  process.p_remove_s = spec.p_remove_s;
  return cny::device::FailureModel(
      cny::cnt::PitchModel(spec.pitch_mean_nm, spec.pitch_cv), process);
}

double cfg_num(const cny::service::Json& config, const char* key) {
  const cny::service::Json* v = config.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("config is missing '") + key +
                                "'");
  }
  return v->as_double();
}

std::vector<double> cfg_list(const cny::service::Json& config,
                             const char* key) {
  const cny::service::Json* v = config.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("config is missing '") + key +
                                "'");
  }
  std::vector<double> out;
  for (const auto& item : v->items()) out.push_back(item.as_double());
  return out;
}

}  // namespace perfbench
