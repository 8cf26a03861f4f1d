// Tests for the 14 named heuristics and their runner.
#include "heuristics/heuristic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "dag/traversal.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"

namespace fpsched {
namespace {

TEST(Heuristics, ExactlyFourteenWithPaperNames) {
  const auto specs = all_heuristics();
  ASSERT_EQ(specs.size(), 14u);
  std::set<std::string> names;
  for (const auto& spec : specs) names.insert(spec.name());
  EXPECT_EQ(names.size(), 14u);
  EXPECT_TRUE(names.contains("DF-CkptNvr"));
  EXPECT_TRUE(names.contains("DF-CkptAlws"));
  for (const std::string lin : {"DF", "BF", "RF"}) {
    for (const std::string ck : {"CkptW", "CkptC", "CkptD", "CkptPer"}) {
      EXPECT_TRUE(names.contains(lin + "-" + ck)) << lin + "-" + ck;
    }
  }
  EXPECT_EQ(budgeted_heuristics().size(), 12u);
}

TEST(Heuristics, RunHeuristicProducesAValidEvaluatedSchedule) {
  const TaskGraph graph = generate_montage({.task_count = 40, .seed = 8});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const HeuristicResult result =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight});
  EXPECT_NO_THROW(validate_schedule(graph, result.schedule));
  EXPECT_GT(result.evaluation.expected_makespan, graph.total_weight());
  EXPECT_GE(result.evaluation.ratio, 1.0);
  EXPECT_EQ(result.best_budget, result.schedule.checkpoint_count());
  EXPECT_FALSE(result.curve.empty());
}

TEST(Heuristics, BudgetedHeuristicsBeatOrMatchBothBaselinesHere) {
  // On a workload where both baselines are clearly suboptimal (expensive
  // checkpoints penalize CkptAlws, a non-trivial failure rate penalizes
  // CkptNvr), the swept strategies must improve on both — the paper's
  // headline finding.
  const TaskGraph graph = generate_cybershake(
      {.task_count = 60, .seed = 12, .cost_model = CostModel::proportional(0.3)});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const double never =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::never})
          .evaluation.expected_makespan;
  const double always =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::always})
          .evaluation.expected_makespan;
  double best_swept = std::numeric_limits<double>::infinity();
  for (const CkptStrategy strategy :
       {CkptStrategy::by_weight, CkptStrategy::by_cost, CkptStrategy::by_outweight}) {
    const double swept = run_heuristic(evaluator, {LinearizeMethod::depth_first, strategy})
                             .evaluation.expected_makespan;
    // No single family is guaranteed to dominate CkptAlws on every
    // instance, but none should lose badly to it.
    EXPECT_LE(swept, always * 1.05) << to_string(strategy);
    best_swept = std::min(best_swept, swept);
  }
  EXPECT_LT(best_swept, std::min(never, always));
}

TEST(Heuristics, AllFourteenRunOnEveryWorkflowFamily) {
  for (const WorkflowKind kind : all_workflow_kinds()) {
    const TaskGraph graph = generate_workflow(kind, {.task_count = 36, .seed = 3});
    const ScheduleEvaluator evaluator(graph, FailureModel(paper_lambda(kind), 0.0));
    const auto results = run_heuristics(evaluator, all_heuristics());
    ASSERT_EQ(results.size(), 14u);
    for (const auto& result : results) {
      EXPECT_NO_THROW(validate_schedule(graph, result.schedule)) << result.spec.name();
      EXPECT_GE(result.evaluation.ratio, 1.0) << result.spec.name();
      EXPECT_TRUE(std::isfinite(result.evaluation.expected_makespan)) << result.spec.name();
    }
    const std::size_t best = best_result_index(results);
    for (const auto& result : results) {
      EXPECT_LE(results[best].evaluation.expected_makespan,
                result.evaluation.expected_makespan * (1.0 + 1e-12));
    }
  }
}

TEST(Heuristics, CheckpointNeverIsExactlyTheAtomicLowerStructure) {
  // DF-CkptNvr on a chain equals the single-segment closed form.
  const TaskGraph graph = generate_genome({.task_count = 12, .seed = 1, .weight_cv = 0.0});
  const FailureModel model(1e-5, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const HeuristicResult result =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::never});
  EXPECT_EQ(result.schedule.checkpoint_count(), 0u);
  EXPECT_GE(result.evaluation.expected_makespan, graph.total_weight());
}

TEST(Heuristics, StrideIsPropagated) {
  const TaskGraph graph = generate_montage({.task_count = 30, .seed = 5});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  HeuristicOptions options;
  options.stride = 5;
  const HeuristicResult strided =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight}, options);
  const HeuristicResult full =
      run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight});
  EXPECT_LT(strided.curve.size(), full.curve.size());
  EXPECT_GE(strided.evaluation.expected_makespan,
            full.evaluation.expected_makespan - 1e-9);
}

TEST(Heuristics, WinnersEvaluationRepeatsItsCurvePointBitForBit) {
  // The winner's full evaluation, one more evaluator call per distinct
  // winning budget, reproduces the sweep's own value at that budget bit
  // for bit: under both algorithms, for one model or several, budgeted or
  // not. Only its per-task terms are new.
  const TaskGraph graph = generate_ligo({.task_count = 41, .seed = 13});
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const std::vector<FailureModel> models = {FailureModel(1e-3, 0.0), FailureModel(2e-2, 0.0),
                                            FailureModel(1e-3, 600.0), FailureModel(0.0),
                                            FailureModel(3e-4, 60.0)};
  const auto expect_winner_bits = [](const HeuristicResult& result, const std::string& where) {
    std::size_t winners = 0;
    for (const SweepPoint& point : result.curve) {
      if (point.budget != result.best_budget) continue;
      ++winners;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.evaluation.expected_makespan),
                std::bit_cast<std::uint64_t>(point.expected_makespan))
          << where << ": " << result.evaluation.expected_makespan << " vs "
          << point.expected_makespan;
    }
    EXPECT_EQ(winners, 1u) << where;
  };
  for (const EvalMath math : {EvalMath::exact, EvalMath::fast}) {
    const HeuristicOptions options{.stride = 3, .eval = math};
    for (const CkptStrategy strategy : {CkptStrategy::by_weight, CkptStrategy::periodic,
                                        CkptStrategy::never, CkptStrategy::always}) {
      const HeuristicSpec spec{LinearizeMethod::depth_first, strategy};
      const std::string where = to_string(math) + " " + to_string(strategy);
      const std::vector<HeuristicResult> grouped =
          run_heuristic(ScheduleEvaluator(graph, models.front()), models, spec, order, options);
      ASSERT_EQ(grouped.size(), models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        expect_winner_bits(grouped[m], where + " multi-model " + std::to_string(m));
        expect_winner_bits(run_heuristic(ScheduleEvaluator(graph, models[m]), spec, order, options),
                           where + " single-model " + std::to_string(m));
      }
    }
  }
}

TEST(Heuristics, RandomLinearizationSeedIsHonored) {
  const TaskGraph graph = generate_cybershake({.task_count = 40, .seed = 2});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  HeuristicOptions a;
  a.linearize.seed = 1;
  HeuristicOptions b;
  b.linearize.seed = 1;
  HeuristicOptions c;
  c.linearize.seed = 9;
  const auto ra = run_heuristic(evaluator, {LinearizeMethod::random_first,
                                            CkptStrategy::by_weight}, a);
  const auto rb = run_heuristic(evaluator, {LinearizeMethod::random_first,
                                            CkptStrategy::by_weight}, b);
  const auto rc = run_heuristic(evaluator, {LinearizeMethod::random_first,
                                            CkptStrategy::by_weight}, c);
  EXPECT_EQ(ra.schedule.order, rb.schedule.order);
  EXPECT_NE(ra.schedule.order, rc.schedule.order);
}

}  // namespace
}  // namespace fpsched
