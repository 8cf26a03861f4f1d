// Elementary DAG families used by the theory modules, tests and the
// optimality-gap study: chains, forks, joins, fork-joins, random layered
// DAGs and the paper's Figure 1. Like the workflow generators, each is
// built by TaskGraphBuilder, with one interned type per role ("src",
// "sink", a layer); c_i and r_i start at 0 until the caller applies a
// cost model or set_costs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "workflows/task_graph.hpp"

namespace fpsched {

/// Linear chain T_0 -> T_1 -> ... with the given weights.
TaskGraph make_chain(std::span<const double> weights);

/// Uniform chain of `n` tasks with weight `w` each.
TaskGraph make_uniform_chain(std::size_t n, double weight);

/// Fork: one source followed by `sink_weights.size()` independent sinks.
/// Vertex 0 is the source.
TaskGraph make_fork(double source_weight, std::span<const double> sink_weights);

/// Join: `source_weights.size()` independent sources followed by one sink.
/// The sink is the last vertex.
TaskGraph make_join(std::span<const double> source_weights, double sink_weight);

/// `levels` layers of `width` parallel tasks between a source and a sink;
/// consecutive layers are fully connected.
TaskGraph make_fork_join(std::size_t levels, std::size_t width, double weight);

struct LayeredRandomConfig {
  std::size_t task_count = 30;
  std::size_t layer_count = 5;
  /// Probability of an edge between a vertex and each vertex of the next
  /// layer (every vertex keeps at least one predecessor in the previous
  /// layer so the graph stays "workflow shaped").
  double edge_probability = 0.3;
  double mean_weight = 20.0;
  double weight_cv = 0.5;
  std::uint64_t seed = 7;
};

/// Random layered DAG; the workhorse of the randomized differential tests.
TaskGraph make_layered_random(const LayeredRandomConfig& config);

/// The 8-task example DAG of the paper's Figure 1 (T0..T7), unit costs
/// scaled by `weight`. Edges: T0->T3, T1->T2, T2->T4, T2->T7, T3->T5,
/// T4->T6, T5->T6; checkpointed-in-the-example tasks are T3 and T4 (flags
/// are returned separately by the caller; the graph itself is plain).
TaskGraph make_paper_figure1(double weight = 10.0);

}  // namespace fpsched
