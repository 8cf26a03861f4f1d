#include "heuristics/sweep.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/threading.hpp"

namespace fpsched {

void SweepOptions::validate() const {
  ensure(stride >= 1, "sweep stride must be >= 1");
}

SweepResult sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                    const std::vector<VertexId>& order, CkptStrategy strategy,
                                    const SweepOptions& options) {
  options.validate();
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  // Validate the linearization once; the per-candidate evaluations skip it.
  validate_schedule(graph, make_schedule(order));

  EvaluatorWorkspace local_ws;
  EvaluatorWorkspace& caller_ws = options.workspace ? *options.workspace : local_ws;

  SweepResult result;
  if (!is_budgeted(strategy)) {
    Schedule schedule = make_heuristic_schedule(graph, order, strategy, 0);
    result.best_expected_makespan =
        evaluator.expected_makespan(schedule, caller_ws, /*validate=*/false, options.eval);
    result.best_budget = schedule.checkpoint_count();
    result.curve.push_back(
        {result.best_budget, schedule.checkpoint_count(), result.best_expected_makespan});
    result.best_schedule = std::move(schedule);
    return result;
  }

  // Budget grid: 1, 1+stride, ..., plus n-1 (paper: exhaustive 1..n-1).
  std::vector<std::size_t> budgets;
  if (options.include_zero) budgets.push_back(0);
  if (n >= 2) {
    for (std::size_t b = 1; b < n; b += options.stride) budgets.push_back(b);
    if (budgets.empty() || budgets.back() != n - 1) budgets.push_back(n - 1);
  } else {
    budgets.push_back(0);
  }

  std::vector<SweepPoint> points(budgets.size());
  std::vector<Schedule> schedules(budgets.size());

  // Worker 0 is this thread on the caller's workspace; each helper gets
  // its own.
  const std::size_t helpers = std::min(worker_slots(options.pool), budgets.size()) - 1;
  std::vector<EvaluatorWorkspace> helper_ws(helpers);
  parallel_for_workers(options.pool, 0, budgets.size(), [&](std::size_t idx, std::size_t worker) {
    EvaluatorWorkspace& ws = worker == 0 ? caller_ws : helper_ws[worker - 1];
    Schedule schedule = make_heuristic_schedule(graph, order, strategy, budgets[idx]);
    const double expected =
        evaluator.expected_makespan(schedule, ws, /*validate=*/false, options.eval);
    points[idx] = {budgets[idx], schedule.checkpoint_count(), expected};
    schedules[idx] = std::move(schedule);
  });

  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].expected_makespan < points[best].expected_makespan) best = i;
  }
  result.best_budget = points[best].budget;
  result.best_expected_makespan = points[best].expected_makespan;
  result.best_schedule = std::move(schedules[best]);
  result.curve = std::move(points);
  return result;
}

}  // namespace fpsched
