#include "heuristics/greedy.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace fpsched {

namespace {

/// Stop when the best move improves by less than this relative amount.
constexpr double kMinRelativeGain = 1e-12;

}  // namespace

GreedyResult greedy_checkpoint_search(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order) {
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  Schedule current = make_schedule(order);
  validate_schedule(graph, current);

  EvaluatorWorkspace ws;
  GreedyResult result;
  result.expected_makespan = evaluator.expected_makespan(current, ws, /*validate=*/false);
  result.trajectory.push_back(result.expected_makespan);

  for (std::size_t round = 0; round <= n; ++round) {
    // Evaluate every single-flip neighbour in place; the first strict
    // minimum wins.
    std::size_t best = n;
    double best_value = result.expected_makespan;
    for (std::size_t v = 0; v < n; ++v) {
      current.checkpointed[v] ^= 1;
      const double value = evaluator.expected_makespan(current, ws, /*validate=*/false);
      current.checkpointed[v] ^= 1;
      if (value < best_value) {
        best_value = value;
        best = v;
      }
    }
    if (best == n) break;  // no improving move
    const double gain = (result.expected_makespan - best_value) /
                        std::max(result.expected_makespan, 1e-300);
    if (gain < kMinRelativeGain) break;
    current.checkpointed[best] ^= 1;
    result.expected_makespan = best_value;
    result.trajectory.push_back(best_value);
    ++result.rounds;
  }

  result.schedule = std::move(current);
  return result;
}

}  // namespace fpsched
