#include "heuristics/heuristic.hpp"

#include "support/error.hpp"

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
  std::vector<SweepResult> sweeps =
      sweep_checkpoint_budget(evaluator, models, order, spec.checkpointing, options.sweep);

  // Re-evaluate each winner with the sweep's math backend so the recorded
  // Evaluation comes from the same backend as the sweep that selected it
  // (for the exact backend this is bit-identical to a plain evaluate()).
  // Models whose sweeps picked the same budget won with the same
  // schedule, so they share one multi-model call.
  EvaluatorWorkspace local_ws;
  EvaluatorWorkspace& ws = options.sweep.workspace ? *options.sweep.workspace : local_ws;
  std::vector<HeuristicResult> results(models.size());
  std::vector<char> done(models.size(), 0);
  std::vector<FailureModel> sharing;
  std::vector<std::size_t> members;
  std::vector<Evaluation> evaluations;
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (done[m]) continue;
    sharing.clear();
    members.clear();
    for (std::size_t j = m; j < models.size(); ++j) {
      if (!done[j] && sweeps[j].best_budget == sweeps[m].best_budget) {
        sharing.push_back(models[j]);
        members.push_back(j);
        done[j] = 1;
      }
    }
    evaluations.assign(members.size(), Evaluation{});
    evaluator.evaluate(sweeps[m].best_schedule, sharing, ws, evaluations, options.sweep.eval);
    for (std::size_t s = 0; s < members.size(); ++s) {
      HeuristicResult& result = results[members[s]];
      SweepResult& sweep = sweeps[members[s]];
      result.spec = spec;
      result.best_budget = sweep.best_budget;
      result.curve = std::move(sweep.curve);
      result.evaluation = std::move(evaluations[s]);
      result.schedule = std::move(sweep.best_schedule);
    }
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
