// Execution subsystem: a small reusable thread pool.
//
// The pool is deliberately minimal — a fixed set of workers draining one
// FIFO queue — because every parallel construct in this library owns its
// own determinism: `parallel_mc_reduce` (parallel_mc.h) merges shards in
// stream order, the p_F kernel (cnt/pf_kernel.cpp) sums node shards in
// node order. The pool only ever decides *when* work runs, never *what*
// is computed.
//
// Re-entrancy rule: code already running on a pool worker must not post
// work and block on it (the classic nested-fork deadlock). Callers can
// detect that situation with `ThreadPool::on_worker_thread()` and fall back
// to inline execution; `parallel_for` does exactly that.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cny::exec {

/// Hardware concurrency, never less than 1.
[[nodiscard]] unsigned hardware_threads();

class ThreadPool {
 public:
  /// `n_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(unsigned n_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues `task` for execution on some worker, FIFO order.
  void post(std::function<void()> task);

  /// True iff the calling thread is a worker of *any* ThreadPool, or is
  /// working a loop of a LoopTeam (or parallel_for) as its caller.
  [[nodiscard]] static bool on_worker_thread();

  /// Process-wide pool sized to hardware_threads(), created on first use.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(0) .. body(n-1) on up to `n_threads` threads (0 = hardware
/// concurrency) and returns when all have finished: a one-loop LoopTeam
/// (below), whose contract it shares. Runs inline when parallelism cannot
/// help or when already on a pool worker (nested fork). `body` must make
/// any cross-index writes to disjoint slots — this helper adds no
/// synchronisation around them beyond the final join.
void parallel_for(std::size_t n, unsigned n_threads,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// A fork-join team that runs a chain of parallel loops with one set of
/// helpers: the exact p_F kernel runs one loop per PMF term, ~60 per call,
/// each worth tens of microseconds, so helpers that were re-posted and
/// re-woken per loop would arrive after most of it was done. A team posts
/// its helpers once, at construction; between loops they spin briefly on
/// the team, then sleep on it.
///
/// Each run() claims indices from a shared counter and the caller works
/// alongside the helpers, so every loop completes even if the pool never
/// schedules a helper; body(0) .. body(n-1) run once each. The caller
/// counts as a pool worker meanwhile, so nested parallel calls from its
/// bodies run inline. The first exception a body throws is rethrown once
/// the loop is done. Every loop runs inline when `n_threads` resolves to 1
/// or the team is built on a pool worker. Helpers share only the team's
/// own state (never the caller's stack outside a loop), so one the pool
/// starts after the team is gone just returns. One thread calls run();
/// helpers leave on destruction.
class LoopTeam {
 public:
  /// Up to `n_threads` threads per loop (0 = hardware concurrency),
  /// helpers taken from `pool` (null = ThreadPool::shared()).
  explicit LoopTeam(unsigned n_threads, ThreadPool* pool = nullptr);
  ~LoopTeam();
  LoopTeam(const LoopTeam&) = delete;
  LoopTeam& operator=(const LoopTeam&) = delete;

  /// Runs body(0) .. body(n-1) across the team; returns when all are done.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  struct State;
  std::shared_ptr<State> state_;  ///< null: every loop runs inline
};

}  // namespace cny::exec
