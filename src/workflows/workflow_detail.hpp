// Internal helper shared by the workflow generators (not installed API).
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "dag/graph.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workflows/generator.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched::detail {

/// Accumulates vertices with typed, gamma-distributed weights and freezes
/// into a TaskGraph with the configured cost model applied.
///
/// Streams straight into TaskGraphBuilder: types are interned once and
/// edges go to the arena-backed DagBuilder. Each `add` draws its weight
/// right before adding the task, so a generator's order of `add` calls
/// fixes its RNG call order, and with it every figure byte.
class WorkflowAssembler {
 public:
  WorkflowAssembler(const GeneratorConfig& config, std::string workflow_name)
      : config_(config), rng_(config.seed), name_(std::move(workflow_name)) {
    builder_.reserve(config.task_count, config.task_count * 2);
  }

  /// Adds a task of `type` with weight drawn around `mean_weight`.
  VertexId add(std::string_view type, double mean_weight) {
    const double weight = config_.weight_cv == 0.0
                              ? mean_weight
                              : rng_.gamma_mean_cv(mean_weight, config_.weight_cv);
    return builder_.add_task(builder_.intern_type(type), weight);
  }

  void edge(VertexId from, VertexId to) { builder_.add_edge(from, to); }

  Rng& rng() { return rng_; }

  std::size_t task_count() const { return builder_.task_count(); }

  TaskGraph finish() {
    ensure(builder_.task_count() == config_.task_count,
           name_ + " generator produced " + std::to_string(builder_.task_count()) +
               " tasks, expected " + std::to_string(config_.task_count));
    TaskGraph graph = std::move(builder_).finish();
    graph.apply_cost_model(config_.cost_model);
    return graph;
  }

 private:
  GeneratorConfig config_;
  TaskGraphBuilder builder_;
  Rng rng_;
  std::string name_;
};

inline void require_minimum(const GeneratorConfig& config, WorkflowKind kind) {
  ensure(config.task_count >= minimum_task_count(kind),
         to_string(kind) + " needs at least " + std::to_string(minimum_task_count(kind)) +
             " tasks, got " + std::to_string(config.task_count));
}

}  // namespace fpsched::detail
