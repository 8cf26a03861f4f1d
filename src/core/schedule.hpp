// A schedule in the paper's sense: a linearization of the DAG plus, for
// every task, the decision whether to checkpoint its output.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/graph.hpp"

namespace fpsched {

class TaskGraph;

struct Schedule {
  /// Execution order: order[i] is the vertex executed at position i.
  std::vector<VertexId> order;
  /// checkpointed[v] != 0 iff vertex v's output is checkpointed (indexed by
  /// vertex id, not by position).
  std::vector<std::uint8_t> checkpointed;

  Schedule() = default;
  Schedule(std::vector<VertexId> order_in, std::vector<std::uint8_t> checkpointed_in)
      : order(std::move(order_in)), checkpointed(std::move(checkpointed_in)) {}

  std::size_t task_count() const { return order.size(); }

  bool is_checkpointed(VertexId v) const { return checkpointed[v] != 0; }

  std::size_t checkpoint_count() const;

  /// positions()[v] = index of vertex v in `order`.
  std::vector<std::uint32_t> positions() const;
};

/// Schedules that share one linearization, as the evaluator's block calls
/// take them: member b checkpoints vertex v iff flags[b][v] != 0.
struct ScheduleBlock {
  std::span<const VertexId> order;
  std::span<const std::vector<std::uint8_t>> flags;
};

/// Builds a schedule with all-false checkpoint flags from an order.
Schedule make_schedule(std::vector<VertexId> order);

/// Throws ScheduleError unless `schedule.order` is a valid linearization of
/// `graph.dag()` and the flag vector has the right size.
void validate_schedule(const TaskGraph& graph, const Schedule& schedule);

/// validate_schedule for every member of `block`.
void validate_block(const TaskGraph& graph, const ScheduleBlock& block);

}  // namespace fpsched
