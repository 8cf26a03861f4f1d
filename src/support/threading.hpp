// Shared-memory parallelism: a fixed thread pool and parallel_for_workers
// — the one loop every parallel caller runs, always on a pool the caller
// owns. Only the experiment engine and the HTTP server (whose connection
// workers use ThreadPool::submit) construct a pool; everything else runs
// serially inside their workers.
//
// We follow the "think in tasks, not threads" guideline: callers hand an
// index range to parallel_for_workers, per-worker scratch is picked by
// the worker index, and results go to disjoint slots so the hot path
// needs no locking.
//
// The loop's caller is worker 0 and claims indices one at a time from a
// shared atomic cursor. Before each index it posts one helper per idle
// pool worker (ThreadPool::has_idle_worker, a relaxed counter) as long as
// unclaimed indices remain for them; a helper claims indices from the
// same cursor until it runs dry. A saturated pool therefore posts
// nothing, and a worker that frees up joins an in-flight loop within one
// body call. Helpers are plain pool tasks. Once out of indices, the
// caller waits only for the helpers that already started; a helper the
// pool starts later returns at once and touches nothing of the loop. No
// wait depends on a queued task being picked up, so a loop nested in
// another loop's body (a budget sweep inside a scenario) cannot deadlock,
// even on a one-worker pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "support/sync.hpp"

namespace fpsched {

/// A fixed-size pool of worker threads consuming a FIFO of tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows any exception the task
  /// raised.
  std::future<void> submit(std::function<void()> task);

  /// Whether some worker is neither running a task nor spoken for by a
  /// queued one. A relaxed snapshot: a scheduling hint, never an input to
  /// correctness.
  bool has_idle_worker() const { return idle_.load(std::memory_order_relaxed) > 0; }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// Workers minus running tasks minus queued tasks.
  std::atomic<std::ptrdiff_t> idle_;
};

/// Upper bound (exclusive) on the worker index parallel_for_workers
/// passes on `pool`: the caller plus one helper per pool thread. Size
/// per-worker scratch with it (capped by the index count).
inline std::size_t worker_slots(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->size() + 1;
}

/// Runs body(index, worker) once for every index in [begin, end) on the
/// calling thread (worker 0) plus helpers posted onto `pool` while it has
/// idle workers (see the header comment); a null pool runs the loop
/// inline. Concurrently running bodies always see distinct worker indices,
/// each below min(worker_slots(pool), end - begin). Returns when every
/// claimed index finished; the first exception any body threw stops
/// further claims and is rethrown. Safe to call from inside another
/// loop's body on the same pool.
void parallel_for_workers(ThreadPool* pool, std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace fpsched
