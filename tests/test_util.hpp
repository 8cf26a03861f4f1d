// Shared helpers for the fpsched test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
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

/// A graph whose vertex v weighs weights[v], with the given edges; every
/// task has one type and its c_i and r_i start at 0.
inline TaskGraph build_graph(const std::vector<double>& weights,
                             const std::vector<std::pair<VertexId, VertexId>>& edges) {
  TaskGraphBuilder builder;
  const TypeId type = builder.intern_type("task");
  for (const double weight : weights) builder.add_task(type, weight);
  for (const auto& [from, to] : edges) builder.add_edge(from, to);
  return std::move(builder).finish();
}

/// 64-bit FNV-1a digest of everything a TaskGraph holds: the task count,
/// each task's type name and the bit patterns of its w_i, c_i and r_i, and
/// the sorted edge list. Pins the output of a graph builder.
inline std::uint64_t graph_digest(const TaskGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  mix(graph.task_count());
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    const std::string& type = graph.type(v);
    mix(type.size());
    for (const char c : type) mix(static_cast<unsigned char>(c));
    mix(std::bit_cast<std::uint64_t>(graph.weight(v)));
    mix(std::bit_cast<std::uint64_t>(graph.ckpt_cost(v)));
    mix(std::bit_cast<std::uint64_t>(graph.recovery_cost(v)));
  }
  // Successor rows are sorted, so this walk visits the edges in order.
  mix(graph.dag().edge_count());
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    for (const VertexId succ : graph.dag().successors(v)) {
      mix(v);
      mix(succ);
    }
  }
  return hash;
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
