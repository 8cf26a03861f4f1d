// Tests for the thread pool, the pool-backed parallel_for_workers loop
// (nested and with late helpers), and the thread-count default.
#include "support/threading.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/result_sink.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace fpsched {
namespace {

/// Runs `body` on a separate thread and fails WITHOUT hanging the suite
/// when it does not finish within `seconds` — the deadlock guard for the
/// nested-scheduling tests. A deadlocked body can never be joined (an
/// std::async future's destructor would just block on it), so on timeout
/// this reports and hard-exits the binary: a loud red test beats hanging
/// to the CI job timeout with no diagnostic.
void expect_finishes_within(int seconds, const std::function<void()>& body) {
  std::promise<void> promise;
  std::future<void> done = promise.get_future();
  std::thread worker(
      [&body](std::promise<void> result) {
        try {
          body();
          result.set_value();
        } catch (...) {
          result.set_exception(std::current_exception());
        }
      },
      std::move(promise));
  if (done.wait_for(std::chrono::seconds(seconds)) != std::future_status::ready) {
    std::cerr << "FATAL: timed out after " << seconds
              << "s — nested pool scheduling deadlocked?\n";
    std::_Exit(3);
  }
  worker.join();
  done.get();  // propagate assertions/exceptions
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, RejectsZeroWorkers) { EXPECT_THROW(ThreadPool(0), InvalidArgument); }

TEST(ThreadPool, IdleWorkersAreVisibleUntilClaimed) {
  ThreadPool pool(1);
  EXPECT_TRUE(pool.has_idle_worker());
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto blocker = pool.submit([opened] { opened.wait(); });
  EXPECT_FALSE(pool.has_idle_worker());  // queued or running, it is spoken for
  gate.set_value();
  blocker.get();
  // The worker counts itself idle again right after finishing the task.
  for (int spin = 0; spin < 1000 && !pool.has_idle_worker(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.has_idle_worker());
}

// --- parallel_for_workers ----------------------------------------------

TEST(ParallelForWorkers, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_workers(&pool, 0, n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  int calls = 0;
  parallel_for_workers(&pool, 5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_workers(&pool, 5, 6, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(i, 5u);
    EXPECT_EQ(worker, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForWorkers, ConcurrentBodiesNeverShareAWorkerIndex) {
  ThreadPool pool(5);
  const std::size_t slots = worker_slots(&pool);
  ASSERT_EQ(slots, 6u);
  std::vector<std::atomic<bool>> busy(slots);
  std::atomic<int> violations{0};
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{4000}}) {
    parallel_for_workers(&pool, 0, n, [&](std::size_t, std::size_t worker) {
      if (worker >= std::min(slots, n) || busy[worker].exchange(true)) {
        violations.fetch_add(1);
        return;
      }
      std::this_thread::yield();
      busy[worker].store(false);
    });
  }
  EXPECT_EQ(violations.load(), 0);
}

TEST(ParallelForWorkers, SweepNestedInAScenarioOnAOneWorkerPoolCompletes) {
  // The deadlock guard: an outer loop whose bodies each run an inner loop
  // on the same single-worker pool.
  expect_finishes_within(30, [] {
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    parallel_for_workers(&pool, 0, 8, [&](std::size_t, std::size_t) {
      parallel_for_workers(&pool, 0, 16,
                           [&](std::size_t, std::size_t) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 8 * 16);
  });
}

TEST(ParallelForWorkers, ThreeLevelNestingUnderContention) {
  // Three levels of nested loops, more indices than workers at every
  // level, each level called from inside the bodies of the one above.
  expect_finishes_within(60, [] {
    ThreadPool pool(3);
    std::atomic<int> leaves{0};
    parallel_for_workers(&pool, 0, 6, [&](std::size_t, std::size_t) {
      parallel_for_workers(&pool, 0, 5, [&](std::size_t, std::size_t) {
        parallel_for_workers(&pool, 0, 4,
                             [&](std::size_t, std::size_t) { leaves.fetch_add(1); });
      });
    });
    EXPECT_EQ(leaves.load(), 6 * 5 * 4);
  });
}

TEST(ParallelForWorkers, HelpersStartingAfterTheLoopReturnedDoNothing) {
  // The caller usually runs both indices before the one worker wakes for
  // the helper it posted, so most helpers start after their loop returned
  // and the next round reuses its stack frame. Such a helper must claim
  // nothing, neither of its own loop nor of a later one.
  ThreadPool pool(1);
  for (int round = 0; round < 20000; ++round) {
    std::array<int, 2> hits{};
    parallel_for_workers(&pool, 0, 2, [&](std::size_t i, std::size_t) { ++hits[i]; });
    ASSERT_EQ(hits[0], 1) << "round " << round;
    ASSERT_EQ(hits[1], 1) << "round " << round;
  }
}

TEST(ParallelForWorkers, PropagatesTheFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for_workers(&pool, 0, 100000,
                                    [&](std::size_t i, std::size_t) {
                                      if (i == 500) throw std::runtime_error("index 500");
                                    }),
               std::runtime_error);
  // The pool survives.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ParallelForWorkers, NullPoolRunsInlineAsWorkerZero) {
  EXPECT_EQ(worker_slots(nullptr), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_workers(nullptr, 3, 9, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
}

// --- default_thread_count ----------------------------------------------

/// RAII override of FPSCHED_THREADS.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) : saved_(env_string("FPSCHED_THREADS")) {
    ::setenv("FPSCHED_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (saved_) {
      ::setenv("FPSCHED_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("FPSCHED_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(DefaultThreadCount, AlwaysWithinOneAndTheCeiling) {
  const std::size_t hardware = [] {
    const ScopedThreadsEnv unset("");
    return default_thread_count();
  }();
  EXPECT_GE(hardware, 1u);
  EXPECT_LE(hardware, kMaxPoolThreads);
  {
    const ScopedThreadsEnv env("3");
    EXPECT_EQ(default_thread_count(), 3u);
  }
  {
    const ScopedThreadsEnv env("100000");
    EXPECT_EQ(default_thread_count(), kMaxPoolThreads);
  }
  // Malformed values fall back to the hardware count: a sign (strtoull
  // would wrap "-1" to 2^64 - 1), zero, trailing junk, whitespace, and
  // out-of-range digits.
  for (const char* bad : {"-1", "+4", "0", "4x", " 4", "4 ", "99999999999999999999999"}) {
    const ScopedThreadsEnv env(bad);
    EXPECT_EQ(default_thread_count(), hardware) << "FPSCHED_THREADS='" << bad << "'";
  }
}

// --- Nested scheduling through the engine ------------------------------

/// NDJSON serialization of a grid run under the given engine options —
/// the byte stream every thread count must agree on.
std::string grid_ndjson(const engine::ScenarioGrid& grid, const engine::EngineOptions& options) {
  const engine::ExperimentEngine eng(options);
  std::string out;
  for (const engine::ScenarioResult& result : eng.run(grid.enumerate())) {
    out += engine::to_json({"stress", "panel", result});
    out += '\n';
  }
  return out;
}

engine::ScenarioGrid nested_stress_grid() {
  engine::ScenarioGrid grid;
  grid.base.workflow = WorkflowKind::cybershake;
  grid.base.stride = 4;
  grid.xs = {40};
  grid.policies = {
      engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight}),
      engine::ScenarioPolicy::best_lin(CkptStrategy::by_cost),
      engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::never}),
  };
  return grid;
}

TEST(NestedScheduling, RecordsBitIdenticalToSerialRun) {
  // 3 scenarios on an 8-worker engine: the scenario loop leaves workers
  // idle, so they join the in-flight budget sweeps. The records must be
  // the same bytes as the fully serial run.
  expect_finishes_within(120, [] {
    const engine::ScenarioGrid grid = nested_stress_grid();
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 8}));
  });
}

TEST(NestedScheduling, SingleScenarioManyWorkers) {
  // The acceptance shape: one scenario, many workers — all parallelism
  // must come from sweep helpers, and the pool must wind down cleanly
  // with most workers never seeing a scenario.
  expect_finishes_within(120, [] {
    engine::ScenarioGrid grid = nested_stress_grid();
    grid.policies = {
        engine::ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight})};
    grid.base.stride = 1;  // full 1..n-1 budget fan-out
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 8}));
  });
}

TEST(NestedScheduling, AbsurdThreadCountsAreClampedNotFatal) {
  // Thread counts arrive from CLI flags; a threads=10^9 request must
  // degrade to the engine's hard worker ceiling (and the same bytes),
  // not attempt a billion OS threads.
  expect_finishes_within(120, [] {
    engine::ScenarioGrid grid = nested_stress_grid();
    grid.policies.resize(1);
    const std::string serial = grid_ndjson(grid, {.threads = 1});
    EXPECT_EQ(serial, grid_ndjson(grid, {.threads = 1'000'000'000}));
    const engine::ExperimentEngine wide({.threads = 1'000'000'000});
    EXPECT_LE(wide.thread_count(), kMaxPoolThreads);
  });
}

}  // namespace
}  // namespace fpsched
