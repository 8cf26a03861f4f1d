// Tests for the exhaustive checkpoint-budget sweep of run_heuristic.
#include "heuristics/heuristic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dag/linearize.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::expect_rel_near;

/// The heuristic of `strategy` on a fixed (depth-first) order.
HeuristicSpec df(CkptStrategy strategy) { return {LinearizeMethod::depth_first, strategy}; }

/// The winning curve point's expected makespan.
double best_point(const HeuristicResult& result) {
  for (const SweepPoint& point : result.curve) {
    if (point.budget == result.best_budget) return point.expected_makespan;
  }
  ADD_FAILURE() << "no curve point at the winning budget " << result.best_budget;
  return 0.0;
}

TEST(Sweep, CurveCoversEveryBudgetWithStrideOne) {
  TaskGraph graph = generate_montage({.task_count = 30, .seed = 4});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const std::vector<double> weights = graph.weights();
  const auto order = linearize(graph.dag(), weights, LinearizeMethod::depth_first);
  const HeuristicResult result =
      run_heuristic(evaluator, df(CkptStrategy::by_weight), order, {.stride = 1});
  ASSERT_EQ(result.curve.size(), graph.task_count() - 1);  // budgets 1..n-1
  for (std::size_t i = 0; i < result.curve.size(); ++i) {
    EXPECT_EQ(result.curve[i].budget, i + 1);
    EXPECT_GT(result.curve[i].expected_makespan, 0.0);
  }
}

TEST(Sweep, BestMatchesTheCurveMinimum) {
  TaskGraph graph = generate_cybershake({.task_count = 40, .seed = 9});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const HeuristicResult result =
      run_heuristic(evaluator, df(CkptStrategy::by_cost), order, {.stride = 1});
  double minimum = result.curve.front().expected_makespan;
  for (const SweepPoint& point : result.curve)
    minimum = std::min(minimum, point.expected_makespan);
  expect_rel_near(minimum, best_point(result), 1e-12);
  // And the winning schedule re-evaluates to the reported value.
  expect_rel_near(evaluator.evaluate(result.schedule).expected_makespan, best_point(result),
                  1e-12);
}

TEST(Sweep, PoolPathMatchesSerialBitwise) {
  // Budget candidates shared with idle pool workers: curve, winner and
  // schedule must be the same bits as the serial sweep, for pools
  // narrower and wider than the budget count.
  TaskGraph graph = generate_cybershake({.task_count = 37, .seed = 21});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 1.0));
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const HeuristicResult serial = run_heuristic(evaluator, df(CkptStrategy::by_weight), order);
  for (const std::size_t workers : {1u, 3u, 8u, 64u}) {
    ThreadPool pool(workers);
    const HeuristicResult pooled =
        run_heuristic(evaluator, df(CkptStrategy::by_weight), order, {.pool = &pool});
    EXPECT_EQ(serial.best_budget, pooled.best_budget);
    EXPECT_EQ(serial.evaluation.expected_makespan, pooled.evaluation.expected_makespan);
    EXPECT_EQ(serial.schedule.checkpointed, pooled.schedule.checkpointed);
    ASSERT_EQ(serial.curve.size(), pooled.curve.size());
    for (std::size_t i = 0; i < serial.curve.size(); ++i) {
      EXPECT_EQ(serial.curve[i].expected_makespan, pooled.curve[i].expected_makespan);
      EXPECT_EQ(serial.curve[i].checkpoints, pooled.curve[i].checkpoints);
    }
  }
}

TEST(Sweep, PoolPathHonorsCallerWorkspace) {
  // HeuristicOptions::workspace (the outer scenario worker's scratch) must
  // keep working with a pool: the caller's own evaluations reuse it,
  // repeated sweeps through one workspace stay consistent, and
  // non-budgeted strategies (which evaluate exactly once, on the caller's
  // workspace) agree with the serial path.
  TaskGraph graph = generate_montage({.task_count = 30, .seed = 4});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  ThreadPool pool(4);
  EvaluatorWorkspace caller_ws;
  const HeuristicResult serial = run_heuristic(evaluator, df(CkptStrategy::by_cost), order);
  for (int rep = 0; rep < 3; ++rep) {
    const HeuristicResult pooled = run_heuristic(evaluator, df(CkptStrategy::by_cost), order,
                                                 {.workspace = &caller_ws, .pool = &pool});
    EXPECT_EQ(serial.best_budget, pooled.best_budget);
    EXPECT_EQ(serial.evaluation.expected_makespan, pooled.evaluation.expected_makespan);
  }
  const HeuristicResult never_serial = run_heuristic(evaluator, df(CkptStrategy::never), order);
  const HeuristicResult never_pooled = run_heuristic(evaluator, df(CkptStrategy::never), order,
                                                     {.workspace = &caller_ws, .pool = &pool});
  EXPECT_EQ(never_serial.evaluation.expected_makespan, never_pooled.evaluation.expected_makespan);
  // And the caller workspace is still good for direct evaluations.
  EXPECT_EQ(evaluator.expected_makespan(never_serial.schedule, caller_ws),
            never_serial.evaluation.expected_makespan);
}

TEST(Sweep, MultiModelSweepMatchesPerModelSweeps) {
  // One run for several failure models (lambda and D siblings, a repeated
  // model and lambda = 0) must equal one run per model in every curve
  // point, winner, winning schedule and evaluation — serially and with
  // pool helpers, for budgeted and non-budgeted strategies.
  TaskGraph graph = generate_ligo({.task_count = 41, .seed = 13});
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const std::vector<FailureModel> models = {
      FailureModel(1e-3, 0.0), FailureModel(1e-3, 600.0), FailureModel(2e-2, 0.0),
      FailureModel(0.0),       FailureModel(1e-3, 0.0),   FailureModel(3e-4, 60.0)};
  const ScheduleEvaluator evaluator(graph, models.front());
  ThreadPool pool(3);
  for (const CkptStrategy strategy : {CkptStrategy::by_weight, CkptStrategy::periodic,
                                      CkptStrategy::never, CkptStrategy::always}) {
    for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::vector<HeuristicResult> grouped = run_heuristic(
          evaluator, models, df(strategy), order, {.stride = 3, .pool = workers});
      ASSERT_EQ(grouped.size(), models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        const HeuristicResult single = run_heuristic(ScheduleEvaluator(graph, models[m]),
                                                     df(strategy), order, {.stride = 3});
        EXPECT_EQ(grouped[m].best_budget, single.best_budget) << to_string(strategy) << " " << m;
        EXPECT_EQ(grouped[m].evaluation.expected_makespan, single.evaluation.expected_makespan);
        EXPECT_EQ(grouped[m].evaluation.ratio, single.evaluation.ratio);
        EXPECT_EQ(grouped[m].evaluation.fault_free_time, single.evaluation.fault_free_time);
        EXPECT_EQ(grouped[m].schedule.order, single.schedule.order);
        EXPECT_EQ(grouped[m].schedule.checkpointed, single.schedule.checkpointed);
        ASSERT_EQ(grouped[m].curve.size(), single.curve.size());
        for (std::size_t i = 0; i < single.curve.size(); ++i) {
          EXPECT_EQ(grouped[m].curve[i].budget, single.curve[i].budget);
          EXPECT_EQ(grouped[m].curve[i].checkpoints, single.curve[i].checkpoints);
          EXPECT_EQ(grouped[m].curve[i].expected_makespan, single.curve[i].expected_makespan);
        }
      }
    }
  }
  // The failure models disagree on the winner somewhere, so the test sees
  // per-model argmins rather than one shared budget.
  const std::vector<HeuristicResult> grouped =
      run_heuristic(evaluator, models, df(CkptStrategy::by_weight), order, {.stride = 3});
  EXPECT_NE(grouped[2].best_budget, grouped[3].best_budget);
}

TEST(Sweep, StrideSubsamplesButKeepsEndpoints) {
  TaskGraph graph = generate_montage({.task_count = 30, .seed = 4});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const HeuristicResult strided =
      run_heuristic(evaluator, df(CkptStrategy::by_weight), order, {.stride = 7});
  ASSERT_FALSE(strided.curve.empty());
  EXPECT_EQ(strided.curve.front().budget, 1u);
  EXPECT_EQ(strided.curve.back().budget, graph.task_count() - 1);
  EXPECT_LT(strided.curve.size(), graph.task_count() - 1);
  // A strided sweep can only be as good as the exhaustive one.
  const HeuristicResult full =
      run_heuristic(evaluator, df(CkptStrategy::by_weight), order, {.stride = 1});
  EXPECT_GE(strided.evaluation.expected_makespan, full.evaluation.expected_makespan - 1e-12);
}

TEST(Sweep, NonBudgetedStrategiesReturnASinglePoint) {
  TaskGraph graph = generate_montage({.task_count = 25, .seed = 6});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const HeuristicResult never = run_heuristic(evaluator, df(CkptStrategy::never), order);
  EXPECT_EQ(never.curve.size(), 1u);
  EXPECT_EQ(never.schedule.checkpoint_count(), 0u);
  const HeuristicResult always = run_heuristic(evaluator, df(CkptStrategy::always), order);
  ASSERT_EQ(always.curve.size(), 1u);
  EXPECT_EQ(always.schedule.checkpoint_count(), graph.task_count());
  // The single point is labelled with its checkpoint count.
  EXPECT_EQ(always.best_budget, graph.task_count());
  EXPECT_EQ(always.curve[0].budget, graph.task_count());
}

TEST(Sweep, SingleTaskGraph) {
  const TaskGraph graph = make_uniform_chain(1, 5.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-2, 0.0));
  const std::vector<VertexId> order{0};
  const HeuristicResult result = run_heuristic(evaluator, df(CkptStrategy::by_weight), order);
  EXPECT_EQ(result.curve.size(), 1u);
}

TEST(Sweep, RejectsBadInputs) {
  const TaskGraph graph = make_uniform_chain(3, 5.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-2, 0.0));
  const std::vector<VertexId> order{0, 1, 2};
  EXPECT_THROW(run_heuristic(evaluator, df(CkptStrategy::by_weight), order, {.stride = 0}),
               InvalidArgument);
  EXPECT_THROW(
      run_heuristic(evaluator, df(CkptStrategy::by_weight), std::vector<VertexId>{2, 1, 0}),
      ScheduleError);
}

}  // namespace
}  // namespace fpsched
