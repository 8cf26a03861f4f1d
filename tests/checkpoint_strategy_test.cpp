// Tests for the six checkpoint placement strategies of Section 5.
#include "heuristics/checkpoint_strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "dag/linearize.hpp"
#include "dag/traversal.hpp"
#include "support/error.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

std::size_t count_flags(const std::vector<std::uint8_t>& flags) {
  std::size_t n = 0;
  for (const std::uint8_t f : flags)
    if (f) ++n;
  return n;
}

TEST(CkptStrategy, NamesAndBudgetedness) {
  EXPECT_EQ(to_string(CkptStrategy::never), "CkptNvr");
  EXPECT_EQ(to_string(CkptStrategy::always), "CkptAlws");
  EXPECT_EQ(to_string(CkptStrategy::by_weight), "CkptW");
  EXPECT_EQ(to_string(CkptStrategy::by_cost), "CkptC");
  EXPECT_EQ(to_string(CkptStrategy::by_outweight), "CkptD");
  EXPECT_EQ(to_string(CkptStrategy::periodic), "CkptPer");
  EXPECT_EQ(all_ckpt_strategies().size(), 6u);
  EXPECT_FALSE(is_budgeted(CkptStrategy::never));
  EXPECT_FALSE(is_budgeted(CkptStrategy::always));
  EXPECT_TRUE(is_budgeted(CkptStrategy::by_weight));
  EXPECT_TRUE(is_budgeted(CkptStrategy::periodic));
}

TEST(CkptStrategy, NeverAndAlways) {
  const TaskGraph graph = make_paper_figure1(5.0);
  const auto order = graph.dag().topological_order();
  const auto never = place_checkpoints(graph, order, CkptStrategy::never, 3);
  EXPECT_EQ(count_flags(never), 0u);
  const auto always = place_checkpoints(graph, order, CkptStrategy::always, 0);
  EXPECT_EQ(count_flags(always), graph.task_count());
}

TEST(CkptStrategy, ByWeightPicksTheHeaviest) {
  TaskGraph graph = make_chain(std::vector<double>{5.0, 50.0, 1.0, 20.0, 9.0});
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::by_weight, 2);
  EXPECT_EQ(count_flags(flags), 2u);
  EXPECT_TRUE(flags[1]);  // w = 50
  EXPECT_TRUE(flags[3]);  // w = 20
}

TEST(CkptStrategy, ByCostPicksTheCheapest) {
  TaskGraph graph = make_chain(std::vector<double>{5.0, 50.0, 1.0, 20.0, 9.0});
  for (VertexId v = 0; v < graph.task_count(); ++v)
    graph.set_costs(v, static_cast<double>(10 - v), 1.0);  // costs 10, 9, 8, 7, 6
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::by_cost, 2);
  EXPECT_EQ(count_flags(flags), 2u);
  EXPECT_TRUE(flags[4]);  // cost 6
  EXPECT_TRUE(flags[3]);  // cost 7
}

TEST(CkptStrategy, ByOutweightPicksHeavySuccessors) {
  // Fork: the source's outweight is the sum of all sinks; sinks have 0.
  const TaskGraph graph = make_fork(1.0, std::vector<double>{10.0, 20.0, 30.0});
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::by_outweight, 1);
  EXPECT_TRUE(flags[0]);
  EXPECT_EQ(count_flags(flags), 1u);
}

TEST(CkptStrategy, TieBreaksAreStableById) {
  const TaskGraph graph = make_join(std::vector<double>{7.0, 7.0, 7.0, 7.0}, 1.0);
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::by_weight, 2);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(flags[2]);
}

TEST(CkptStrategy, BudgetClampsToTaskCount) {
  const TaskGraph graph = make_uniform_chain(4, 2.0);
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::by_weight, 99);
  EXPECT_EQ(count_flags(flags), 4u);
}

TEST(CkptPeriodic, PlacesMarksAtPeriodBoundaries) {
  // Uniform chain of 10 x 10s, N = 5 -> period 20s: checkpoints after
  // tasks finishing at 20, 40, 60, 80 (positions 1, 3, 5, 7) — N-1 marks.
  const TaskGraph graph = make_uniform_chain(10, 10.0);
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::periodic, 5);
  EXPECT_EQ(count_flags(flags), 4u);
  EXPECT_TRUE(flags[1]);
  EXPECT_TRUE(flags[3]);
  EXPECT_TRUE(flags[5]);
  EXPECT_TRUE(flags[7]);
  EXPECT_FALSE(flags[9]);
}

TEST(CkptPeriodic, OneHugeTaskAbsorbsSeveralMarks) {
  // Weights 5, 100, 5, 5: with N = 4 (period 28.75) marks at 28.75, 57.5,
  // 86.25 all fall inside the big task -> it alone is checkpointed.
  const TaskGraph graph = make_chain(std::vector<double>{5.0, 100.0, 5.0, 5.0});
  const auto order = graph.dag().topological_order();
  const auto flags = place_checkpoints(graph, order, CkptStrategy::periodic, 4);
  EXPECT_EQ(count_flags(flags), 1u);
  EXPECT_TRUE(flags[1]);
}

TEST(CkptPeriodic, RespectsTheLinearization) {
  // The same DAG under two different orders checkpoints different tasks:
  // W = 34, N = 2 puts the single mark at 17, which lands on whichever
  // source crosses that cumulative time.
  const TaskGraph graph = make_join(std::vector<double>{10.0, 12.0, 11.0}, 1.0);
  const auto a = place_checkpoints(graph, std::vector<VertexId>{0, 1, 2, 3},
                                   CkptStrategy::periodic, 2);
  const auto b = place_checkpoints(graph, std::vector<VertexId>{1, 0, 2, 3},
                                   CkptStrategy::periodic, 2);
  EXPECT_TRUE(a[1]);  // cumulative 10, 22 -> the mark lands on vertex 1
  EXPECT_TRUE(b[0]);  // cumulative 12, 22 -> the mark lands on vertex 0
  EXPECT_NE(a, b);
}

TEST(CkptPeriodic, BudgetBelowTwoPlacesNothing) {
  const TaskGraph graph = make_uniform_chain(5, 1.0);
  const auto order = graph.dag().topological_order();
  EXPECT_EQ(count_flags(place_checkpoints(graph, order, CkptStrategy::periodic, 0)), 0u);
  EXPECT_EQ(count_flags(place_checkpoints(graph, order, CkptStrategy::periodic, 1)), 0u);
}

/// The sorting strategies' definition, one budget at a time: rank all
/// tasks by the strategy's key with a stable sort (ties by vertex id) and
/// checkpoint the first `budget`.
std::vector<std::uint8_t> sorted_top_n(const TaskGraph& graph, CkptStrategy strategy,
                                       std::size_t budget) {
  const std::size_t n = graph.task_count();
  const std::vector<double> out = direct_outweights(graph.dag(), graph.weights_view());
  std::vector<VertexId> ranked(n);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(), [&](VertexId a, VertexId b) {
    switch (strategy) {
      case CkptStrategy::by_weight: return graph.weight(a) > graph.weight(b);
      case CkptStrategy::by_cost: return graph.ckpt_cost(a) < graph.ckpt_cost(b);
      default: return out[a] > out[b];
    }
  });
  std::vector<std::uint8_t> flags(n, 0);
  for (std::size_t i = 0; i < std::min(budget, n); ++i) flags[ranked[i]] = 1;
  return flags;
}

TEST(CkptStrategy, PlacerMatchesEveryBudget) {
  // The sweep's placer ranks once; each budget's flags must still be the
  // per-budget definition, for every strategy, order and budget 0..n —
  // also under the constant cost model, where every CkptC key ties.
  for (const CostModel cost : {CostModel::proportional(0.1), CostModel::constant(5.0)}) {
    for (const WorkflowKind kind : {WorkflowKind::montage, WorkflowKind::genome}) {
      const TaskGraph graph =
          generate_workflow(kind, {.task_count = 40, .seed = 6, .weight_cv = 0.5,
                                   .cost_model = cost});
      const std::size_t n = graph.task_count();
      for (const LinearizeMethod method : all_linearize_methods()) {
        const std::vector<VertexId> order =
            linearize(graph.dag(), graph.weights_view(), method, {.seed = 3});
        for (const CkptStrategy strategy : all_ckpt_strategies()) {
          const CheckpointPlacer placer(graph, order, strategy);
          for (std::size_t budget = 0; budget <= n; ++budget) {
            const std::vector<std::uint8_t> flags = placer.flags(budget);
            EXPECT_EQ(flags, place_checkpoints(graph, order, strategy, budget))
                << to_string(method) << "-" << to_string(strategy) << " N=" << budget;
            const bool sorting = is_budgeted(strategy) && strategy != CkptStrategy::periodic;
            if (sorting) {
              EXPECT_EQ(flags, sorted_top_n(graph, strategy, budget))
                  << to_string(method) << "-" << to_string(strategy) << " N=" << budget;
            }
            if (sorting && budget > 0) {
              // Consecutive budgets differ in exactly one task.
              std::vector<std::uint8_t> previous = placer.flags(budget - 1);
              std::size_t changed = 0;
              for (std::size_t v = 0; v < n; ++v) changed += previous[v] != flags[v] ? 1 : 0;
              EXPECT_EQ(changed, budget <= n ? 1u : 0u);
            }
          }
        }
      }
    }
  }
}

TEST(CkptStrategy, MakeHeuristicScheduleIsValid) {
  const TaskGraph graph = make_paper_figure1(4.0);
  const std::vector<double> weights = graph.weights();
  auto order = linearize(graph.dag(), weights, LinearizeMethod::depth_first);
  const Schedule schedule =
      make_heuristic_schedule(graph, std::move(order), CkptStrategy::by_weight, 3);
  EXPECT_NO_THROW(validate_schedule(graph, schedule));
  EXPECT_EQ(schedule.checkpoint_count(), 3u);
}

}  // namespace
}  // namespace fpsched
