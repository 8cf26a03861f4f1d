// Tests for the evaluator-guided greedy checkpoint search (our extension
// beyond the paper's ranked strategies).
#include "heuristics/greedy.hpp"

#include <gtest/gtest.h>

#include "core/theory_chain.hpp"
#include "dag/linearize.hpp"
#include "heuristics/heuristic.hpp"
#include "support/error.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::expect_rel_near;

std::vector<VertexId> df_order(const TaskGraph& graph) {
  return linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
}

TEST(Greedy, NoFailuresMeansNoCheckpoints) {
  TaskGraph graph = generate_montage({.task_count = 40, .seed = 2});
  const ScheduleEvaluator evaluator(graph, FailureModel(0.0, 0.0));
  const GreedyResult result = greedy_checkpoint_search(evaluator, df_order(graph));
  EXPECT_EQ(result.schedule.checkpoint_count(), 0u);
  EXPECT_EQ(result.rounds, 0u);
  expect_rel_near(graph.total_weight(), result.expected_makespan, 1e-12);
}

TEST(Greedy, TrajectoryIsStrictlyDecreasing) {
  TaskGraph graph = generate_cybershake({.task_count = 60, .seed = 4});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const GreedyResult result = greedy_checkpoint_search(evaluator, df_order(graph));
  ASSERT_GE(result.trajectory.size(), 2u);  // checkpointing must help here
  for (std::size_t i = 1; i < result.trajectory.size(); ++i)
    EXPECT_LT(result.trajectory[i], result.trajectory[i - 1]);
  EXPECT_EQ(result.rounds + 1, result.trajectory.size());
  expect_rel_near(result.trajectory.back(), result.expected_makespan, 1e-12);
}

TEST(Greedy, ResultIsSingleFlipLocalOptimum) {
  TaskGraph graph = generate_montage({.task_count = 30, .seed = 9});
  const FailureModel model(2e-3, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const GreedyResult result = greedy_checkpoint_search(evaluator, df_order(graph));
  EvaluatorWorkspace ws;
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    Schedule flipped = result.schedule;
    flipped.checkpointed[v] ^= 1;
    EXPECT_GE(evaluator.expected_makespan(flipped, ws, false),
              result.expected_makespan * (1.0 - 1e-12))
        << "flip of vertex " << v << " improves the greedy optimum";
  }
}

TEST(Greedy, MatchesTheOptimumOnChains) {
  // On chains the DP optimum is known; greedy should land on (or extremely
  // close to) it.
  TaskGraph graph = make_chain(std::vector<double>{40.0, 10.0, 90.0, 25.0, 60.0, 15.0, 70.0});
  graph.apply_cost_model(CostModel::proportional(0.15));
  const FailureModel model(0.008, 0.0);
  const ChainSolution optimal = solve_chain_optimal(graph, model);
  const ScheduleEvaluator evaluator(graph, model);
  const GreedyResult greedy = greedy_checkpoint_search(evaluator, df_order(graph));
  EXPECT_LE(greedy.expected_makespan, optimal.expected_makespan * 1.002);
  EXPECT_GE(greedy.expected_makespan, optimal.expected_makespan * (1.0 - 1e-9));
}

TEST(Greedy, AtLeastAsGoodAsEveryPaperHeuristicOnTheSameOrder) {
  TaskGraph graph = generate_ligo({.task_count = 44, .seed = 6});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  const auto order = df_order(graph);
  const GreedyResult greedy = greedy_checkpoint_search(evaluator, order);
  for (const CkptStrategy strategy :
       {CkptStrategy::never, CkptStrategy::always, CkptStrategy::by_weight,
        CkptStrategy::by_cost, CkptStrategy::by_outweight, CkptStrategy::periodic}) {
    const HeuristicResult paper =
        run_heuristic(evaluator, {LinearizeMethod::depth_first, strategy}, order);
    EXPECT_LE(greedy.expected_makespan, paper.evaluation.expected_makespan * (1.0 + 1e-9))
        << to_string(strategy);
  }
}

TEST(Greedy, RejectsBadOrder) {
  const TaskGraph graph = make_uniform_chain(3, 1.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-2, 0.0));
  EXPECT_THROW(greedy_checkpoint_search(evaluator, {2, 1, 0}), ScheduleError);
  EXPECT_THROW(greedy_checkpoint_search(evaluator, {0, 1}), InvalidArgument);
}

}  // namespace
}  // namespace fpsched
