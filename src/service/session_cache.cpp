#include "service/session_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "celllib/generator.h"
#include "netlist/design_generator.h"
#include "scenario/engine.h"
#include "util/contracts.h"
#include "yield/flow.h"

namespace cny::service {

namespace {

/// Distinct design sizes kept warm per session. Beyond this the least
/// recently used is dropped (and regenerated on demand) — generation is
/// deterministic, so eviction is a pure speed/memory trade.
constexpr std::size_t kMaxCachedDesigns = 8;

celllib::Library make_library(const std::string& name) {
  if (name == "commercial65") return celllib::make_commercial65_like();
  CNY_EXPECT_MSG(name == "nangate45", "unknown library '" + name + "'");
  return celllib::make_nangate45_like();
}

/// The session's warm model: yield::warm_model at the key's corner (already
/// derived, so the empty scenario keeps it), timed by an "interpolant_build"
/// span and histogram.
device::FailureModel make_warm_model(const ProcessSpec& spec,
                                     const std::string& canonical,
                                     std::size_t interpolant_knots,
                                     unsigned n_threads, obs::TraceSink* trace,
                                     obs::Histogram* build_histogram) {
  cnt::ProcessParams process;
  process.p_metallic = spec.p_metallic;
  process.p_remove_s = spec.p_remove_s;
  const device::FailureModel base(
      cnt::PitchModel(spec.pitch_mean_nm, spec.pitch_cv), process);
  obs::Span span(trace, "interpolant_build", "session");
  span.arg("session", canonical);
  const auto t0 = std::chrono::steady_clock::now();
  device::FailureModel model =
      yield::warm_model(base, {}, interpolant_knots, n_threads);
  if (build_histogram != nullptr) {
    build_histogram->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return model;
}

}  // namespace

std::string SessionKey::canonical() const {
  // to_json renders doubles shortest-round-trip, so the text key is
  // injective over process corners.
  Json v = Json::object();
  v.set("library", Json::string(library));
  v.set("process", to_json(process));
  return v.dump();
}

SessionKey session_key(const FlowRequest& request) {
  // The key is the *derived* corner: a RemovalFrontier scenario earns its
  // p_Rs from the frontier before the model is built, so scenario sweeps at
  // one corner — and plain requests that state the same corner explicitly —
  // all share one warm FailureModel. The derivation goes through the same
  // scenario::derived_process the flow itself applies, so the session model
  // always passes run_flow's corner check untouched.
  ProcessSpec spec = request.process;
  cnt::ProcessParams base;
  base.p_metallic = spec.p_metallic;
  base.p_remove_s = spec.p_remove_s;
  spec.p_remove_s =
      scenario::derived_process(base, request.params.scenario).p_remove_s;
  return {request.library, spec};
}

Session::Session(SessionKey key, std::size_t interpolant_knots,
                 unsigned n_threads, obs::TraceSink* trace,
                 obs::Histogram* build_histogram)
    : key_(std::move(key)),
      canonical_(key_.canonical()),
      lib_(make_library(key_.library)),
      // Warm over the whole solver bracket: every p_F query any strategy of
      // any request makes lands inside it, so after this one build the hot
      // read path is the lock-free interpolant snapshot.
      model_(make_warm_model(key_.process, canonical_, interpolant_knots,
                             n_threads, trace, build_histogram)) {}

std::shared_ptr<const netlist::Design> Session::design(
    std::uint64_t instances) const {
  const std::lock_guard<std::mutex> lock(designs_mutex_);
  const auto it = std::find_if(
      designs_.begin(), designs_.end(),
      [&](const auto& entry) { return entry.first == instances; });
  if (it != designs_.end()) {
    auto found = it->second;
    designs_.erase(it);
    designs_.insert(designs_.begin(), {instances, found});  // MRU front
    return found;
  }
  auto built = std::make_shared<const netlist::Design>(
      instances == 0
          ? netlist::make_openrisc_like(lib_)
          : netlist::generate_design("synthetic_" + std::to_string(instances),
                                     lib_, instances, {}));
  designs_.insert(designs_.begin(), {instances, built});
  if (designs_.size() > kMaxCachedDesigns) designs_.pop_back();
  return built;
}

SessionCache::SessionCache(std::size_t capacity,
                           std::size_t interpolant_knots, unsigned n_threads)
    : capacity_(capacity),
      interpolant_knots_(interpolant_knots),
      n_threads_(n_threads) {
  CNY_EXPECT(capacity_ >= 1);
  CNY_EXPECT(interpolant_knots_ >= 4);
}

void SessionCache::attach_observability(obs::Registry* registry,
                                        obs::TraceSink* sink, obs::Log* log) {
  trace_ = sink;
  log_ = log;
  if (registry != nullptr) {
    built_counter_ = &registry->counter("sessions_built");
    occupancy_gauge_ = &registry->gauge("sessions_cached");
    warm_histogram_ = &registry->histogram("session_warm_us");
    build_histogram_ = &registry->histogram("interpolant_build_us");
  }
}

std::shared_ptr<const Session> SessionCache::acquire(const SessionKey& key) {
  const std::string canonical = key.canonical();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      sessions_.begin(), sessions_.end(), [&](const auto& session) {
        return session->canonical() == canonical;
      });
  if (it != sessions_.end()) {
    auto session = *it;
    sessions_.erase(it);
    sessions_.insert(sessions_.begin(), session);  // MRU to the front
    return session;
  }
  // A miss is the expensive path worth a span: session_warm covers the
  // whole build (library generation + model + interpolant), with the
  // interpolant_build span nested inside by the Session ctor.
  obs::Span span(trace_, "session_warm", "session");
  span.arg("session", canonical);
  const auto t0 = std::chrono::steady_clock::now();
  auto session = std::make_shared<const Session>(
      key, interpolant_knots_, n_threads_, trace_, build_histogram_);
  if (warm_histogram_ != nullptr) {
    warm_histogram_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  if (built_counter_ != nullptr) built_counter_->add(1);
  obs::LogEvent(log_, obs::LogLevel::Info, "session.built")
      .str("session", canonical)
      .num("cached", static_cast<std::int64_t>(sessions_.size() + 1));
  sessions_.insert(sessions_.begin(), session);
  if (sessions_.size() > capacity_) {
    obs::LogEvent(log_, obs::LogLevel::Info, "session.evicted")
        .str("session", sessions_.back()->canonical())
        .num("capacity", static_cast<std::int64_t>(capacity_));
    sessions_.pop_back();
  }
  if (occupancy_gauge_ != nullptr) {
    occupancy_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
  }
  ++built_;
  return session;
}

std::size_t SessionCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::uint64_t SessionCache::sessions_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return built_;
}

}  // namespace cny::service
