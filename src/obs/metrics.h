// Lock-light metrics registry: named counters, gauges, and log-bucketed
// latency histograms, with a consistent snapshot API.
//
// Design rules:
//   * Hot-path updates are single relaxed atomic RMWs — no locks, no
//     allocation, no syscalls. The registry mutex guards only the
//     name->metric map; callers cache the returned reference (stable for
//     the registry's lifetime) so steady-state code never touches the map.
//   * Snapshots are *consistent per metric*, not across metrics: each
//     counter/gauge/histogram is read atomically, but two metrics may be
//     read a few instructions apart. That is the right trade for
//     diagnostics — cross-metric transactions would put a lock on every
//     increment.
//   * Histograms bucket by log2 of the observed value (microseconds by
//     convention, `*_us` names): 64 buckets cover the full uint64 range,
//     quantiles are estimated by linear interpolation inside the hit
//     bucket, and the exact max is tracked on the side so the tail is
//     never understated by bucketing.
//
// The registry is observability plumbing, never semantics: nothing in the
// library may branch on a metric value, so removing every call site leaves
// behaviour bit-identical (the zero-perturbation contract in
// tests/test_obs.cpp and test_service.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cny::obs {

/// Monotone event count. Relaxed ordering: counts are diagnostics, they
/// order against nothing.
class Counter {
 public:
  void add(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, busy workers): goes up *and* down.
class Gauge {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Read-side view of one histogram; see Histogram for the bucket layout.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< sum of observed values
  std::uint64_t max = 0;  ///< exact largest observation
  std::array<std::uint64_t, 64> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Estimated q-quantile (q in [0,1]): linear interpolation inside the
  /// log2 bucket holding the q*count-th observation, clamped to `max`.
  [[nodiscard]] double quantile(double q) const;
};

/// Log2-bucketed latency histogram. Bucket i holds values whose
/// bit_width is i: bucket 0 = {0}, bucket i = [2^(i-1), 2^i) for
/// 1 <= i < 63, and bucket 63 absorbs everything from 2^62 up (the top
/// two powers share it so 64 buckets cover the whole uint64 axis).
/// One observe() is three relaxed adds plus a CAS-max — no lock.
class Histogram {
 public:
  void observe(std::uint64_t value) {
    const unsigned bucket = bucket_of(value);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] static unsigned bucket_of(std::uint64_t value) {
    unsigned width = 0;  // == std::bit_width(value), spelled out for clarity
    while (value != 0) {
      value >>= 1;
      ++width;
    }
    return width > 63 ? 63 : width;  // clamp into the shared top bucket
  }
  /// [lower, upper] value range of `bucket` (inclusive).
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> bucket_bounds(
      unsigned bucket);

 private:
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One registry's full state, names sorted (std::map order), each metric
/// read atomically at snapshot time.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Named-metric registry. counter()/gauge()/histogram() get-or-create and
/// return a reference that stays valid for the registry's lifetime —
/// resolve once, cache the reference, update lock-free forever after.
/// A name maps to exactly one metric kind; reusing it as another kind
/// throws std::logic_error (a naming bug worth failing loudly on).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Process-wide registry for subsystems without a natural owner
  /// (exec.* pool gauges, kernels.* backend counters). Never destroyed, so
  /// worker threads may touch metrics during static teardown.
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace cny::obs
