#include "support/threading.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "support/error.hpp"

namespace fpsched {

ThreadPool::ThreadPool(std::size_t num_threads)
    : idle_(static_cast<std::ptrdiff_t>(num_threads)) {
  ensure(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn (system thread limit) must not leave joinable
    // threads behind — their destructor would terminate the process.
    {
      const LockGuard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const LockGuard lock(mutex_);
    ensure(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(packaged));
  }
  idle_.fetch_sub(1, std::memory_order_relaxed);
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock, mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured in the packaged_task's future
    idle_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {

/// The join of one parallel_for_workers loop, shared by its caller and
/// the helpers it posted. A helper enters before it touches the loop's
/// stack frame and leaves after; once the caller closed the gate, no
/// helper enters any more.
struct HelperGate {
  Mutex mutex;
  CondVar left;
  std::size_t running GUARDED_BY(mutex) = 0;
  bool closed GUARDED_BY(mutex) = false;

  /// False when the loop is over: the helper must return at once.
  bool enter() EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    if (closed) return false;
    ++running;
    return true;
  }

  void leave() EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    if (--running == 0) left.notify_all();
  }

  /// Turns away every helper still to start and waits for the ones that
  /// entered.
  void close_and_wait() EXCLUDES(mutex) {
    UniqueLock lock(mutex);
    closed = true;
    while (running != 0) left.wait(lock, mutex);
  }
};

}  // namespace

void parallel_for_workers(ThreadPool* pool, std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t max_helpers = pool == nullptr ? 0 : std::min(pool->size(), end - begin - 1);
  if (max_helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i, 0);
    return;
  }

  std::atomic<std::size_t> cursor{begin};
  std::atomic<std::size_t> next_worker{1};
  Mutex error_mutex;
  std::exception_ptr first_error;
  // Runs one index; on a throw records the first error and drains the
  // cursor so every worker stops claiming.
  const auto run_index = [&](std::size_t index, std::size_t worker) {
    try {
      body(index, worker);
      return true;
    } catch (...) {
      {
        const LockGuard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      cursor.store(end);
      return false;
    }
  };
  const auto helper = [&] {
    const std::size_t worker = next_worker.fetch_add(1);
    for (std::size_t i = cursor.fetch_add(1); i < end; i = cursor.fetch_add(1)) {
      if (!run_index(i, worker)) return;
    }
  };

  std::size_t posted = 0;
  // Whether an unclaimed index is left for one more helper on top of the
  // posted ones that have not started yet.
  const auto work_for_another_helper = [&] {
    const std::size_t pending = posted - (next_worker.load() - 1);
    return cursor.load() + pending < end;
  };
  std::shared_ptr<HelperGate> gate;  // allocated by the first post
  try {
    for (std::size_t i = cursor.fetch_add(1); i < end; i = cursor.fetch_add(1)) {
      // Before each index, hand every idle pool worker a helper.
      while (posted < max_helpers && pool->has_idle_worker() && work_for_another_helper()) {
        if (!gate) gate = std::make_shared<HelperGate>();
        // The future is dropped: run_index catches every body exception.
        pool->submit([gate, &helper] {
          if (!gate->enter()) return;
          helper();
          gate->leave();
        });
        ++posted;
      }
      if (!run_index(i, 0)) break;
    }
  } catch (...) {
    // A failed post (out of memory): the helpers that entered still use
    // this frame.
    if (gate) gate->close_and_wait();
    throw;
  }
  if (gate) gate->close_and_wait();
  std::exception_ptr error;
  {
    const LockGuard lock(error_mutex);
    error = first_error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fpsched
