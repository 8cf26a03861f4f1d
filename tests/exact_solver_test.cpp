// Tests for the exact small-instance solver (optimality ground truth).
#include "core/exact_solver.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/theory_chain.hpp"
#include "core/theory_fork.hpp"
#include "core/theory_join.hpp"
#include "dag/linearize.hpp"
#include "dag/traversal.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "test_util.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::expect_rel_near;

TEST(LinearizationEnumeration, CountsMatchCombinatorics) {
  // Chain: exactly one linearization.
  EXPECT_EQ(count_linearizations(make_uniform_chain(5, 1.0).dag()), 1u);
  // k independent sources of a join can permute freely: k! (sink fixed last).
  EXPECT_EQ(count_linearizations(make_join(std::vector<double>(3, 1.0), 1.0).dag()), 6u);
  EXPECT_EQ(count_linearizations(make_join(std::vector<double>(4, 1.0), 1.0).dag()), 24u);
  // Fork: source first, then the k sinks in any order: k!.
  EXPECT_EQ(count_linearizations(make_fork(1.0, std::vector<double>(4, 1.0)).dag()), 24u);
}

TEST(LinearizationEnumeration, EveryVisitIsAValidDistinctOrder) {
  const TaskGraph graph = make_paper_figure1(1.0);
  std::set<std::vector<VertexId>> seen;
  const std::uint64_t count = for_each_linearization(graph.dag(), [&](const auto& order) {
    EXPECT_TRUE(is_valid_linearization(graph.dag(), order));
    EXPECT_TRUE(seen.insert(order).second) << "duplicate linearization";
  });
  EXPECT_EQ(count, seen.size());
  EXPECT_GT(count, 1u);
}

TEST(LinearizationEnumeration, LimitIsEnforced) {
  const TaskGraph join = make_join(std::vector<double>(6, 1.0), 1.0);  // 720 orders
  EXPECT_THROW(count_linearizations(join.dag(), 100), InvalidArgument);
  EXPECT_EQ(count_linearizations(join.dag(), 720), 720u);
}

TEST(ExactFixedOrder, MatchesChainBruteForce) {
  TaskGraph graph = make_chain(std::vector<double>{30.0, 12.0, 45.0, 8.0, 20.0, 60.0});
  graph.apply_cost_model(CostModel::proportional(0.15));
  const FailureModel model(0.01, 1.0);
  const ScheduleEvaluator evaluator(graph, model);
  const auto topo = graph.dag().topological_order();
  const ExactSolution exact =
      solve_exact_fixed_order(evaluator, {topo.begin(), topo.end()});
  const ChainSolution chain = solve_chain_bruteforce(graph, model);
  expect_rel_near(chain.expected_makespan, exact.expected_makespan, 1e-9);
  EXPECT_EQ(exact.schedules_evaluated, 64u);
}

TEST(ExactFull, MatchesJoinBruteForce) {
  // The join brute force explores all partitions under the Lemma-1 order;
  // the exact solver explores all orders too and must land on the same
  // optimum (order does not matter beyond Lemma 1 on joins).
  TaskGraph graph = make_join(std::vector<double>{22.0, 35.0, 11.0}, 16.0);
  graph.apply_cost_model(CostModel::proportional(0.2));
  const FailureModel model(0.01, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const ExactSolution exact = solve_exact(evaluator);
  const JoinSolution join = solve_join_bruteforce(graph, model);
  expect_rel_near(join.expected_makespan, exact.expected_makespan, 1e-9);
  EXPECT_EQ(exact.linearizations_seen, 6u);
}

TEST(ExactFull, MatchesForkTheorem) {
  TaskGraph graph = make_fork(60.0, std::vector<double>{25.0, 10.0});
  graph.set_costs(0, 6.0, 4.0);
  const FailureModel model(0.008, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const ExactSolution exact = solve_exact(evaluator);
  const ForkAnalysis fork = analyze_fork(graph, model);
  // Checkpointing sinks can never help (their outputs feed nothing), so
  // the exact optimum equals Theorem 1's value.
  expect_rel_near(fork.optimal_expected_makespan, exact.expected_makespan, 1e-9);
}

TEST(ExactFull, NeverWorseThanHeuristicsOrGreedy) {
  TaskGraph graph = make_paper_figure1(25.0);
  graph.apply_cost_model(CostModel::proportional(0.12));
  const FailureModel model(0.004, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const ExactSolution exact = solve_exact(evaluator);

  for (const HeuristicSpec& spec : all_heuristics()) {
    const HeuristicResult heuristic = run_heuristic(evaluator, spec);
    EXPECT_GE(heuristic.evaluation.expected_makespan,
              exact.expected_makespan * (1.0 - 1e-9))
        << spec.name();
  }
  const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
  const GreedyResult greedy = greedy_checkpoint_search(evaluator, order);
  EXPECT_GE(greedy.expected_makespan, exact.expected_makespan * (1.0 - 1e-9));
}

TEST(ExactFull, ZeroFailureOptimumIsNoCheckpoints) {
  TaskGraph graph = make_paper_figure1(5.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const ScheduleEvaluator evaluator(graph, FailureModel(0.0, 0.0));
  const ExactSolution exact = solve_exact(evaluator);
  EXPECT_EQ(exact.schedule.checkpoint_count(), 0u);
  expect_rel_near(graph.total_weight(), exact.expected_makespan, 1e-12);
}

TEST(ExactSolver, EnforcesLimits) {
  const TaskGraph big = make_uniform_chain(30, 1.0);
  const ScheduleEvaluator evaluator(big, FailureModel(0.01, 0.0));
  const auto topo = big.dag().topological_order();
  EXPECT_THROW(solve_exact_fixed_order(evaluator, {topo.begin(), topo.end()}),
               InvalidArgument);

  // 10 tasks fit the task cap, but the 9-way join has 9! = 362,880 orders,
  // over the linearization cap: rejected before any schedule is evaluated.
  const TaskGraph wide = make_join(std::vector<double>(9, 1.0), 1.0);
  ASSERT_LE(wide.task_count(), kExactMaxTasks);
  const ScheduleEvaluator wide_eval(wide, FailureModel(0.01, 0.0));
  obs::Counter& runs = obs::MetricsRegistry::global().counter("fpsched_eval_runs_total", "");
  const std::uint64_t runs_before = runs.value();
  EXPECT_THROW(solve_exact(wide_eval), InvalidArgument);
  EXPECT_EQ(runs.value() - runs_before, 0u);
}

}  // namespace
}  // namespace fpsched
