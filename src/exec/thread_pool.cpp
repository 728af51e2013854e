#include "exec/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::exec {

namespace {
thread_local bool t_on_worker = false;

/// Waits until `ready(value)` holds for an atomic other threads advance:
/// spins first, then sleeps on the atomic, so a long wait costs no CPU.
/// Returns the value seen. The spin (~30 us of pauses on a current Xeon)
/// covers the gap between a team's loops — the caller's serial step plus
/// its last shard; spinning much longer only burns CPU that a busy host's
/// other threads need (with two CPU hogs running, a 16x longer spin made
/// the 4-thread cold flow ~10% slower, and it gained nothing idle). It
/// never yields: a yielding thread that shares a core with a busy one gets
/// the core back only after that thread's whole time slice.
template <class Ready>
std::uint64_t await(const std::atomic<std::uint64_t>& a, const Ready& ready) {
  constexpr unsigned kSpins = 1u << 10;
  std::uint64_t v = a.load();
  for (unsigned spin = 0; !ready(v); ++spin) {
    if (spin < kSpins) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      a.wait(v);
    }
    v = a.load();
  }
  return v;
}

/// Process-wide pool metrics (obs::Registry::global(), "exec." prefix):
/// queue depth and busy/live worker gauges answer "is the pool the
/// bottleneck" from a stats frame. References resolved once; every update
/// is a relaxed atomic add next to a mutex the pool already takes.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& workers_busy;
  obs::Gauge& workers_live;
  obs::Counter& tasks_posted;
  obs::Counter& tasks_executed;
  obs::Counter& parallel_for_calls;
  obs::Counter& parallel_for_inline;
};

PoolMetrics& metrics() {
  static auto& registry = obs::Registry::global();
  static PoolMetrics m{registry.gauge("exec.queue_depth"),
                       registry.gauge("exec.workers_busy"),
                       registry.gauge("exec.workers_live"),
                       registry.counter("exec.tasks_posted"),
                       registry.counter("exec.tasks_executed"),
                       registry.counter("exec.parallel_for_calls"),
                       registry.counter("exec.parallel_for_inline")};
  return m;
}
}  // namespace

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned n_threads) {
  const unsigned n = n_threads == 0 ? hardware_threads() : n_threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  metrics().tasks_posted.add(1);
  metrics().queue_depth.add(1);
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;  // sized to hardware_threads(); lives forever
  return pool;
}

void parallel_for(std::size_t n, unsigned n_threads,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  if (n == 0) return;
  metrics().parallel_for_calls.add(1);
  const unsigned threads = n_threads == 0 ? hardware_threads() : n_threads;
  if (threads <= 1 || n == 1 || ThreadPool::on_worker_thread()) {
    metrics().parallel_for_inline.add(1);  // the team below runs inline
  }
  LoopTeam(static_cast<unsigned>(std::min<std::size_t>(threads, n)), pool)
      .run(n, body);
}

// Loop k of a team lives in slots[k & 1]. The ticket packs (k << 32) with
// the next unclaimed index of loop k, so a claim — a CAS on the ticket —
// fails for any thread still looking at an older loop. Slot fields are
// read before the CAS; a successful CAS proves loop k was still current
// at that point, and a slot is rewritten only for loop k + 2, so the
// values read were loop k's. Every access below is sequentially
// consistent: that total order is what the argument rests on.
struct LoopTeam::State {
  struct Slot {
    std::atomic<const std::function<void(std::size_t)>*> body{nullptr};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> done{0};
  };
  std::atomic<std::uint64_t> ticket{0};  ///< loop 0 = none published yet
  std::array<Slot, 2> slots;
  std::atomic<bool> closed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::uint32_t loop = 0;  ///< last loop published (caller thread only)

  /// Claims and runs indices of loop `k` until none is left.
  void work(std::uint32_t k) {
    Slot& slot = slots[k & 1];
    std::uint64_t t = ticket.load();
    for (;;) {
      if (static_cast<std::uint32_t>(t >> 32) != k) return;
      const std::uint64_t i = t & 0xffffffffu;
      const std::uint64_t n = slot.n.load();
      const auto* body = slot.body.load();
      if (i >= n) return;
      if (!ticket.compare_exchange_weak(t, t + 1)) continue;
      try {
        (*body)(static_cast<std::size_t>(i));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      slot.done.fetch_add(1);
      slot.done.notify_all();  // the caller may sleep on it (see run)
      t = ticket.load();
    }
  }

  /// A helper's life: join every loop published after it arrived, and
  /// leave when the team closes. Between loops it awaits the ticket (the
  /// caller notifies when it publishes).
  void help() {
    std::uint32_t seen = 0;
    for (;;) {
      const std::uint64_t t = await(ticket, [&](std::uint64_t v) {
        return static_cast<std::uint32_t>(v >> 32) != seen;
      });
      // The destructor raises `closed` before it moves the ticket, so a
      // helper that sees the closing ticket sees the flag too.
      if (closed.load()) return;
      seen = static_cast<std::uint32_t>(t >> 32);
      work(seen);
    }
  }
};

LoopTeam::LoopTeam(unsigned n_threads, ThreadPool* pool) {
  const unsigned threads = n_threads == 0 ? hardware_threads() : n_threads;
  if (threads <= 1 || ThreadPool::on_worker_thread()) return;
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  const unsigned helpers = std::min(threads - 1, p.size());
  state_ = std::make_shared<State>();
  for (unsigned h = 0; h < helpers; ++h) {
    p.post([state = state_] { state->help(); });
  }
}

LoopTeam::~LoopTeam() {
  if (!state_) return;
  state_->closed.store(true);
  // Wake sleeping helpers: a loop number no run() publishes.
  state_->ticket.store(std::uint64_t{0xffffffffu} << 32);
  state_->ticket.notify_all();
}

void LoopTeam::run(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (!state_ || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  CNY_EXPECT(n <= 0xffffffffu);
  State& s = *state_;
  const std::uint32_t k = ++s.loop;
  State::Slot& slot = s.slots[k & 1];
  slot.n.store(n);
  slot.body.store(&body);
  slot.done.store(0);
  s.ticket.store(std::uint64_t{k} << 32);  // publishes loop k
  s.ticket.notify_all();
  // The caller works like a helper, and is marked as a worker meanwhile:
  // a nested parallel call from one of its bodies (a flow sharding its own
  // kernels) runs inline instead of posting to a pool this loop keeps busy.
  const bool was_worker = std::exchange(t_on_worker, true);
  s.work(k);
  t_on_worker = was_worker;
  // Indices a helper claimed may still be running; wait them out.
  (void)await(slot.done, [&](std::uint64_t done) { return done >= n; });
  if (s.error) std::rethrow_exception(std::exchange(s.error, nullptr));
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  PoolMetrics& m = metrics();  // global registry is never destroyed
  m.workers_live.add(1);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        m.workers_live.add(-1);
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    m.queue_depth.add(-1);
    m.workers_busy.add(1);
    task();
    m.workers_busy.add(-1);
    m.tasks_executed.add(1);
  }
}

}  // namespace cny::exec
