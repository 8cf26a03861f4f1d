// Shared helpers for the fpsched test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule.hpp"
#include "support/stats.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched::testing {

/// EXPECT that two doubles agree within a relative tolerance (handles the
/// magnitude swings of Eq. (1) better than absolute EXPECT_NEAR).
inline void expect_rel_near(double expected, double actual, double tol = 1e-9,
                            const char* what = "") {
  EXPECT_LE(relative_difference(expected, actual), tol)
      << what << " expected=" << expected << " actual=" << actual;
}

inline void assert_rel_near(double expected, double actual, double tol = 1e-9,
                            const char* what = "") {
  ASSERT_LE(relative_difference(expected, actual), tol)
      << what << " expected=" << expected << " actual=" << actual;
}

/// Schedule with the graph's deterministic topological order and no
/// checkpoints.
inline Schedule topo_schedule(const TaskGraph& graph) {
  const auto topo = graph.dag().topological_order();
  return make_schedule(std::vector<VertexId>(topo.begin(), topo.end()));
}

/// Same, with the given vertices checkpointed.
inline Schedule topo_schedule_with_ckpts(const TaskGraph& graph,
                                         const std::vector<VertexId>& ckpts) {
  Schedule schedule = topo_schedule(graph);
  for (const VertexId v : ckpts) schedule.checkpointed[v] = 1;
  return schedule;
}

/// This process's thread count (the "Threads:" line of
/// /proc/self/status; 0 where procfs is unavailable).
inline long process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      long count = 0;
      status >> count;
      return count;
    }
  }
  return 0;
}

/// Samples process_thread_count() every millisecond while alive; peak()
/// excludes the sampler's own thread.
class ThreadCountSampler {
 public:
  ThreadCountSampler() : thread_([this] { loop(); }) {}
  ~ThreadCountSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadCountSampler(const ThreadCountSampler&) = delete;
  ThreadCountSampler& operator=(const ThreadCountSampler&) = delete;

  /// Includes a sample taken now, so a run too short for the sampler
  /// thread to get scheduled still yields a count.
  long peak() const { return std::max(peak_.load(), process_thread_count()) - 1; }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), process_thread_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_{0};
  std::thread thread_;
};

}  // namespace fpsched::testing
