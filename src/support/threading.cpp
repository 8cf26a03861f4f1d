#include "support/threading.hpp"

#include <algorithm>
#include <exception>
#include <optional>
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
  enqueue({std::move(packaged), {}});
  return future;
}

void ThreadPool::enqueue(Item item) {
  {
    const LockGuard lock(mutex_);
    ensure(!stopping_, "enqueue on a stopping pool");
    queue_.push_back(std::move(item));
  }
  idle_.fetch_sub(1, std::memory_order_relaxed);
  cv_.notify_one();
}

bool ThreadPool::GroupState::run_one() {
  std::function<void()> task;
  {
    const LockGuard lock(mutex);
    if (tasks.empty()) return false;
    task = std::move(tasks.front());
    tasks.pop_front();
  }
  try {
    task();
  } catch (...) {
    const LockGuard lock(mutex);
    if (!error) error = std::current_exception();
  }
  finish_one();
  return true;
}

void ThreadPool::GroupState::finish_one() {
  bool last = false;
  {
    const LockGuard lock(mutex);
    last = --outstanding == 0;
  }
  if (last) done.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Item item;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock, mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (item.task.valid()) {
      item.task();  // exceptions are captured in the packaged_task's future
    } else if (const std::shared_ptr<GroupState> group = item.group.lock()) {
      // A ticket whose task the waiter already ran finds nothing to claim.
      group->run_one();
    }
    idle_.fetch_add(1, std::memory_order_relaxed);
  }
}

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(&pool), state_(std::make_shared<ThreadPool::GroupState>()) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destruction must not throw; call wait() explicitly to observe task
    // exceptions.
  }
}

void TaskGroup::run(std::function<void()> task) {
  {
    const LockGuard lock(state_->mutex);
    state_->tasks.push_back(std::move(task));
    ++state_->outstanding;
  }
  pool_->enqueue({{}, state_});
}

void TaskGroup::wait() {
  // Help first: drain this group's queued tasks on the calling thread.
  // Only when every remaining task is running on some other thread does
  // the wait actually block — which is what makes joining from inside a
  // pool worker safe (the worker never parks while its own work is
  // claimable).
  while (state_->run_one()) {
  }
  {
    UniqueLock lock(state_->mutex);
    while (state_->outstanding != 0) state_->done.wait(lock, state_->mutex);
    if (state_->error) {
      std::exception_ptr error = std::exchange(state_->error, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

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

  std::optional<TaskGroup> helpers;  // created by the first post
  std::size_t posted = 0;
  // Whether an unclaimed index is left for one more helper on top of the
  // posted ones that have not started yet.
  const auto work_for_another_helper = [&] {
    const std::size_t pending = posted - (next_worker.load() - 1);
    return cursor.load() + pending < end;
  };
  for (std::size_t i = cursor.fetch_add(1); i < end; i = cursor.fetch_add(1)) {
    // Before each index, hand every idle pool worker a helper.
    while (posted < max_helpers && pool->has_idle_worker() && work_for_another_helper()) {
      if (!helpers) helpers.emplace(*pool);
      helpers->run(helper);
      ++posted;
    }
    if (!run_index(i, 0)) break;
  }
  if (helpers) helpers->wait();
  std::exception_ptr error;
  {
    const LockGuard lock(error_mutex);
    error = first_error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fpsched
