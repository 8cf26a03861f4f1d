#include "core/schedule.hpp"

#include <algorithm>

#include "dag/traversal.hpp"
#include "support/error.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched {

std::size_t Schedule::checkpoint_count() const {
  return static_cast<std::size_t>(std::count_if(checkpointed.begin(), checkpointed.end(),
                                                [](std::uint8_t f) { return f != 0; }));
}

std::vector<std::uint32_t> Schedule::positions() const {
  std::vector<std::uint32_t> pos(order.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<std::uint32_t>(i);
  return pos;
}

Schedule make_schedule(std::vector<VertexId> order) {
  const std::size_t n = order.size();
  return Schedule(std::move(order), std::vector<std::uint8_t>(n, 0));
}

void validate_schedule(const TaskGraph& graph, const Schedule& schedule) {
  validate_block(graph, {schedule.order, {&schedule.checkpointed, 1}});
}

void validate_block(const TaskGraph& graph, const ScheduleBlock& block) {
  if (block.order.size() != graph.task_count())
    throw ScheduleError("schedule order has " + std::to_string(block.order.size()) +
                        " entries for " + std::to_string(graph.task_count()) + " tasks");
  for (const std::vector<std::uint8_t>& flags : block.flags) {
    if (flags.size() != graph.task_count())
      throw ScheduleError("checkpoint flag vector has wrong size");
  }
  if (!is_valid_linearization(graph.dag(), block.order))
    throw ScheduleError("schedule order is not a valid linearization of the DAG");
}

}  // namespace fpsched
