// Edge cases across module boundaries: zero-weight tasks (the Theorem-2
// gadget has a weightless sink), single-task graphs, overflow to +inf on
// failure-dominated segments, and degenerate strategy inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "core/evaluator_naive.hpp"
#include "core/subset_sum.hpp"
#include "core/theory_join.hpp"
#include "heuristics/checkpoint_strategy.hpp"
#include "heuristics/heuristic.hpp"
#include "sim/trial_runner.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::build_graph;
using testing::expect_rel_near;
using testing::topo_schedule;

TEST(EdgeCases, ZeroWeightTasksFlowThroughEvaluatorAndSimulator) {
  // A join whose sink has weight zero (the NP gadget's shape).
  TaskGraph graph = make_join(std::vector<double>{10.0, 20.0}, 0.0);
  graph.set_costs(0, 2.0, 1.0);
  const FailureModel model(0.01, 0.0);
  Schedule schedule = topo_schedule(graph);
  schedule.checkpointed[0] = 1;
  const double fast = ScheduleEvaluator(graph, model).evaluate(schedule).expected_makespan;
  const double naive = evaluate_reference(graph, model, schedule);
  expect_rel_near(naive, fast, 1e-9);
  const MonteCarloSummary mc =
      run_trials(FaultSimulator(graph, model, schedule), {.trials = 30000, .seed = 4});
  EXPECT_TRUE(mc.consistent_with(fast, 3.0))
      << "analytic=" << fast << " mc=" << mc.mean_makespan() << " +/- " << mc.ci95();
}

TEST(EdgeCases, TheNpGadgetEvaluatesConsistentlyInTheGeneralModel) {
  // Connects Theorem 2 to Theorem 3: the gadget's Corollary-2 value equals
  // the general evaluator's on the corresponding schedule.
  const SubsetSumReduction reduction = reduce_subset_sum({{3, 5, 7}, 8});
  const std::vector<VertexId> ckpt{2};  // checkpoint the "7" source
  const double corollary =
      join_expected_time_zero_recovery(reduction.graph, reduction.model, ckpt);
  const Schedule schedule = join_schedule(reduction.graph, reduction.model, ckpt);
  const double general = ScheduleEvaluator(reduction.graph, reduction.model)
                             .evaluate(schedule)
                             .expected_makespan;
  expect_rel_near(corollary, general, 1e-9);
}

TEST(EdgeCases, AllZeroWeightsAreFreeUnderAnyFailureRate) {
  TaskGraph graph = make_uniform_chain(4, 0.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(0.5, 100.0));
  EXPECT_DOUBLE_EQ(evaluator.evaluate(topo_schedule(graph)).expected_makespan, 0.0);
  Rng rng(1);
  const FaultSimulator sim(graph, FailureModel(0.5, 100.0), topo_schedule(graph));
  EXPECT_DOUBLE_EQ(sim.run(rng).makespan, 0.0);
}

TEST(EdgeCases, FailureDominatedSegmentsOverflowToInfinityGracefully) {
  // lambda * W huge: the expectation is +inf, not a NaN or a crash.
  TaskGraph graph = make_uniform_chain(3, 1000.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(1.0, 0.0));
  const Evaluation eval = evaluator.evaluate(topo_schedule(graph));
  EXPECT_TRUE(std::isinf(eval.expected_makespan));
  EXPECT_FALSE(std::isnan(eval.ratio));
}

TEST(EdgeCases, CheckpointingRescuesAFailureDominatedChain) {
  // Same chain, but checkpointing every task keeps segments small enough
  // to finish: a dramatic illustration of why checkpoints matter.
  TaskGraph graph = make_uniform_chain(3, 10.0);
  graph.apply_cost_model(CostModel::constant(0.5));
  const ScheduleEvaluator evaluator(graph, FailureModel(0.2, 0.0));
  const double bare = evaluator.evaluate(topo_schedule(graph)).expected_makespan;
  Schedule all = topo_schedule(graph);
  for (VertexId v = 0; v < graph.task_count(); ++v) all.checkpointed[v] = 1;
  const double protected_run = evaluator.evaluate(all).expected_makespan;
  EXPECT_LT(protected_run, bare / 3.0);
}

TEST(EdgeCases, SingleTaskHeuristicsAndSweeps) {
  TaskGraph graph = make_uniform_chain(1, 25.0);
  graph.set_costs(0, 2.0, 2.0);
  const ScheduleEvaluator evaluator(graph, FailureModel(0.01, 0.0));
  for (const HeuristicSpec& spec : all_heuristics()) {
    const HeuristicResult result = run_heuristic(evaluator, spec);
    EXPECT_EQ(result.schedule.order.size(), 1u) << spec.name();
    EXPECT_GT(result.evaluation.expected_makespan, 0.0) << spec.name();
  }
}

TEST(EdgeCases, PeriodicOnZeroTotalWeightPlacesNothing) {
  const TaskGraph graph = make_uniform_chain(3, 0.0);
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::periodic, 3);
  for (const auto f : flags) EXPECT_EQ(f, 0);
}

TEST(EdgeCases, DisconnectedComponentsEvaluateIndependently) {
  // Two independent chains in one graph: the expected makespan equals the
  // sum of the two chains evaluated separately (serialized platform).
  const TaskGraph graph = build_graph(std::vector<double>(4, 30.0), {{0, 1}, {2, 3}});
  const FailureModel model(0.005, 0.0);
  const double whole = ScheduleEvaluator(graph, model)
                           .evaluate(make_schedule({0, 1, 2, 3}))
                           .expected_makespan;
  const TaskGraph chain = make_uniform_chain(2, 30.0);
  const double one = ScheduleEvaluator(chain, model)
                         .evaluate(topo_schedule(chain))
                         .expected_makespan;
  expect_rel_near(2.0 * one, whole, 1e-9);
}

TEST(EdgeCases, InterleavingIndependentChainsIsStrictlyWorse) {
  // The deferral identity does NOT extend across independent components:
  // finishing a chain retires its work (completed exit tasks are never
  // re-executed), whereas interleaving keeps both chains' uncheckpointed
  // work exposed to failures for longer. This is the quantitative heart
  // of the paper's depth-first-beats-breadth-first observation. Verified
  // by hand for this instance: sequential ~139.9 s vs interleaved ~149.5 s.
  const TaskGraph graph = build_graph(std::vector<double>(4, 30.0), {{0, 1}, {2, 3}});
  const FailureModel model(0.005, 0.0);
  const ScheduleEvaluator evaluator(graph, model);
  const double sequential = evaluator.evaluate(make_schedule({0, 1, 2, 3})).expected_makespan;
  const double interleaved = evaluator.evaluate(make_schedule({0, 2, 1, 3})).expected_makespan;
  EXPECT_LT(sequential, interleaved);
  expect_rel_near(139.94, sequential, 1e-3);   // 2 x E[t(60; 0; 0)]
  expect_rel_near(149.50, interleaved, 1e-3);  // hand-computed over Z events
}

}  // namespace
}  // namespace fpsched
