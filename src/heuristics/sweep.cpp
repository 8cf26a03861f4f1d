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
  return std::move(
      sweep_checkpoint_budget(evaluator, {&evaluator.model(), 1}, order, strategy, options)[0]);
}

std::vector<SweepResult> sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                                 std::span<const FailureModel> models,
                                                 const std::vector<VertexId>& order,
                                                 CkptStrategy strategy,
                                                 const SweepOptions& options) {
  options.validate();
  ensure(!models.empty(), "a sweep needs at least one failure model");
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  // Validate the linearization once; the per-candidate evaluations skip it.
  validate_schedule(graph, make_schedule(order));

  EvaluatorWorkspace local_ws;
  EvaluatorWorkspace& caller_ws = options.workspace ? *options.workspace : local_ws;
  const std::size_t model_count = models.size();
  std::vector<SweepResult> results(model_count);

  if (!is_budgeted(strategy)) {
    Schedule schedule = make_heuristic_schedule(graph, order, strategy, 0);
    std::vector<double> expected(model_count);
    evaluator.expected_makespans(schedule, models, caller_ws, expected, /*validate=*/false,
                                 options.eval);
    for (std::size_t m = 0; m < model_count; ++m) {
      SweepResult& result = results[m];
      result.best_budget = schedule.checkpoint_count();
      result.best_expected_makespan = expected[m];
      result.curve.push_back({result.best_budget, schedule.checkpoint_count(), expected[m]});
      result.best_schedule = schedule;
    }
    return results;
  }

  // Budget grid: 1, 1+stride, ..., plus n-1 (paper: exhaustive 1..n-1).
  std::vector<std::size_t> budgets;
  if (n >= 2) {
    for (std::size_t b = 1; b < n; b += options.stride) budgets.push_back(b);
    if (budgets.back() != n - 1) budgets.push_back(n - 1);
  } else {
    budgets.push_back(0);
  }

  // Slot [idx * model_count + m] holds budget idx under models[m].
  std::vector<double> expected(budgets.size() * model_count);
  std::vector<std::size_t> checkpoints(budgets.size());

  // Worker 0 is this thread on the caller's workspace; each helper gets
  // its own.
  const std::size_t helpers = std::min(worker_slots(options.pool), budgets.size()) - 1;
  std::vector<EvaluatorWorkspace> helper_ws(helpers);
  parallel_for_workers(options.pool, 0, budgets.size(), [&](std::size_t idx, std::size_t worker) {
    EvaluatorWorkspace& ws = worker == 0 ? caller_ws : helper_ws[worker - 1];
    const Schedule schedule = make_heuristic_schedule(graph, order, strategy, budgets[idx]);
    checkpoints[idx] = schedule.checkpoint_count();
    evaluator.expected_makespans(schedule, models, ws,
                                 {expected.data() + idx * model_count, model_count},
                                 /*validate=*/false, options.eval);
  });

  // Per model: the first strict minimum wins, and its schedule is rebuilt
  // once per distinct winning budget.
  for (std::size_t m = 0; m < model_count; ++m) {
    SweepResult& result = results[m];
    result.curve.reserve(budgets.size());
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) {
      result.curve.push_back({budgets[idx], checkpoints[idx], expected[idx * model_count + m]});
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < result.curve.size(); ++i) {
      if (result.curve[i].expected_makespan < result.curve[best].expected_makespan) best = i;
    }
    result.best_budget = result.curve[best].budget;
    result.best_expected_makespan = result.curve[best].expected_makespan;
    std::size_t twin = 0;
    while (twin < m && results[twin].best_budget != result.best_budget) ++twin;
    result.best_schedule = twin < m
                               ? results[twin].best_schedule
                               : make_heuristic_schedule(graph, order, strategy, result.best_budget);
  }
  return results;
}

}  // namespace fpsched
