#include "heuristics/heuristic.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/threading.hpp"

namespace fpsched {

std::string HeuristicSpec::name() const {
  return to_string(linearization) + "-" + to_string(checkpointing);
}

std::vector<HeuristicSpec> all_heuristics() {
  std::vector<HeuristicSpec> specs;
  specs.push_back({LinearizeMethod::depth_first, CkptStrategy::never});
  specs.push_back({LinearizeMethod::depth_first, CkptStrategy::always});
  for (const HeuristicSpec& spec : budgeted_heuristics()) specs.push_back(spec);
  return specs;
}

std::vector<HeuristicSpec> budgeted_heuristics() {
  std::vector<HeuristicSpec> specs;
  for (const LinearizeMethod lin : all_linearize_methods()) {
    for (const CkptStrategy ck : {CkptStrategy::by_weight, CkptStrategy::by_cost,
                                  CkptStrategy::by_outweight, CkptStrategy::periodic}) {
      specs.push_back({lin, ck});
    }
  }
  return specs;
}

HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const HeuristicOptions& options) {
  const TaskGraph& graph = evaluator.graph();
  const std::vector<VertexId> order =
      linearize(graph.dag(), graph.weights_view(), spec.linearization, options.linearize);
  return run_heuristic(evaluator, spec, order, options);
}

HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const std::vector<VertexId>& order,
                              const HeuristicOptions& options) {
  return std::move(run_heuristic(evaluator, {&evaluator.model(), 1}, spec, order, options)[0]);
}

std::vector<HeuristicResult> run_heuristic(const ScheduleEvaluator& evaluator,
                                           std::span<const FailureModel> models,
                                           const HeuristicSpec& spec,
                                           const std::vector<VertexId>& order,
                                           const HeuristicOptions& options) {
  ensure(options.stride >= 1, "sweep stride must be >= 1");
  ensure(!models.empty(), "a heuristic run needs at least one failure model");
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(order.size() == n, "order size must match the task count");

  // Validate the linearization once; the per-candidate evaluations skip it.
  validate_schedule(graph, make_schedule(order));

  // Budget grid: 1, 1+stride, ..., plus n-1 (paper: exhaustive 1..n-1).
  // A non-budgeted strategy ignores the budget: its one candidate is 0.
  const CkptStrategy strategy = spec.checkpointing;
  const bool budgeted = is_budgeted(strategy);
  std::vector<std::size_t> budgets;
  if (budgeted && n >= 2) {
    for (std::size_t b = 1; b < n; b += options.stride) budgets.push_back(b);
    if (budgets.back() != n - 1) budgets.push_back(n - 1);
  } else {
    budgets.push_back(0);
  }

  // Slot [idx * model_count + m] holds budget idx under models[m].
  const std::size_t model_count = models.size();
  std::vector<double> expected(budgets.size() * model_count);
  std::vector<std::size_t> checkpoints(budgets.size());

  // The sweep's unit of work is a block of consecutive budgets, evaluated
  // in one block call; its size depends on n and the lanes only.
  const CheckpointPlacer placer(graph, order, strategy);
  const std::size_t block = ScheduleEvaluator::block_size(n, models);
  const std::size_t blocks = (budgets.size() + block - 1) / block;

  // Worker 0 is this thread on the caller's workspace; each helper gets
  // its own.
  EvaluatorWorkspace local_ws;
  EvaluatorWorkspace& caller_ws = options.workspace ? *options.workspace : local_ws;
  const std::size_t helpers = std::min(worker_slots(options.pool), blocks) - 1;
  std::vector<EvaluatorWorkspace> helper_ws(helpers);
  parallel_for_workers(options.pool, 0, blocks, [&](std::size_t index, std::size_t worker) {
    EvaluatorWorkspace& ws = worker == 0 ? caller_ws : helper_ws[worker - 1];
    const std::size_t first = index * block;
    const std::size_t last = std::min(first + block, budgets.size());
    std::vector<std::vector<std::uint8_t>> flags;
    flags.reserve(last - first);
    for (std::size_t idx = first; idx < last; ++idx) {
      flags.push_back(placer.flags(budgets[idx]));
      checkpoints[idx] = static_cast<std::size_t>(
          std::count(flags.back().begin(), flags.back().end(), std::uint8_t{1}));
    }
    const std::span<double> out(expected.data() + first * model_count,
                                flags.size() * model_count);
    evaluator.expected_makespans(ScheduleBlock{order, flags}, models, ws, out,
                                 /*validate=*/false, options.eval);
  });

  // Per model: the curve and its first strict minimum.
  std::vector<HeuristicResult> results(model_count);
  std::vector<std::size_t> winner(model_count);
  for (std::size_t m = 0; m < model_count; ++m) {
    HeuristicResult& result = results[m];
    result.spec = spec;
    result.curve.reserve(budgets.size());
    for (std::size_t idx = 0; idx < budgets.size(); ++idx) {
      result.curve.push_back({budgeted ? budgets[idx] : checkpoints[idx], checkpoints[idx],
                              expected[idx * model_count + m]});
    }
    for (std::size_t idx = 1; idx < budgets.size(); ++idx) {
      if (result.curve[idx].expected_makespan < result.curve[winner[m]].expected_makespan) {
        winner[m] = idx;
      }
    }
    result.best_budget = result.curve[winner[m]].budget;
  }

  // Each distinct winner, in first-appearance order: its schedule is
  // rebuilt once and evaluated, with the run's math, in one multi-model
  // call for the models that picked it.
  std::vector<char> done(model_count, 0);
  std::vector<FailureModel> sharing;
  std::vector<std::size_t> members;
  std::vector<Evaluation> evaluations;
  for (std::size_t m = 0; m < model_count; ++m) {
    if (done[m]) continue;
    sharing.clear();
    members.clear();
    for (std::size_t j = m; j < model_count; ++j) {
      if (!done[j] && winner[j] == winner[m]) {
        sharing.push_back(models[j]);
        members.push_back(j);
        done[j] = 1;
      }
    }
    Schedule schedule(order, placer.flags(budgets[winner[m]]));
    evaluations.assign(members.size(), Evaluation{});
    evaluator.evaluate(schedule, sharing, caller_ws, evaluations, options.eval);
    for (std::size_t s = 0; s < members.size(); ++s) {
      results[members[s]].evaluation = std::move(evaluations[s]);
      if (s > 0) results[members[s]].schedule = schedule;
    }
    results[m].schedule = std::move(schedule);
  }
  return results;
}

std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                            const std::vector<HeuristicSpec>& specs,
                                            const HeuristicOptions& options) {
  std::vector<HeuristicResult> results;
  results.reserve(specs.size());
  for (const HeuristicSpec& spec : specs) results.push_back(run_heuristic(evaluator, spec, options));
  return results;
}

std::size_t best_result_index(const std::vector<HeuristicResult>& results) {
  ensure(!results.empty(), "best_result_index needs at least one result");
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].evaluation.expected_makespan < results[best].evaluation.expected_makespan)
      best = i;
  }
  return best;
}

}  // namespace fpsched
