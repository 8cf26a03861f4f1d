// Tests for the TaskGraph container and cost models.
#include "workflows/task_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/error.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

TEST(TaskGraph, AccessorsAndTotals) {
  const TaskGraph graph = make_chain(std::vector<double>{2.0, 3.0, 5.0});
  EXPECT_EQ(graph.task_count(), 3u);
  EXPECT_DOUBLE_EQ(graph.weight(1), 3.0);
  EXPECT_DOUBLE_EQ(graph.total_weight(), 10.0);
  EXPECT_DOUBLE_EQ(graph.average_weight(), 10.0 / 3.0);
  EXPECT_EQ(graph.weights(), (std::vector<double>{2.0, 3.0, 5.0}));
  EXPECT_EQ(graph.type(0), "chain");
}

TEST(TaskGraph, ProportionalCostModel) {
  TaskGraph graph = make_chain(std::vector<double>{10.0, 20.0});
  graph.apply_cost_model(CostModel::proportional(0.1));
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(0), 1.0);
  EXPECT_DOUBLE_EQ(graph.recovery_cost(0), 1.0);
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(1), 2.0);
}

TEST(TaskGraph, ConstantCostModel) {
  TaskGraph graph = make_chain(std::vector<double>{10.0, 20.0});
  graph.apply_cost_model(CostModel::constant(5.0));
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(0), 5.0);
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(1), 5.0);
  EXPECT_DOUBLE_EQ(graph.recovery_cost(1), 5.0);
}

TEST(TaskGraph, SetCosts) {
  TaskGraph graph = make_chain(std::vector<double>{10.0, 20.0});
  graph.set_costs(0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(0), 3.0);
  EXPECT_DOUBLE_EQ(graph.recovery_cost(0), 2.0);
  EXPECT_THROW(graph.set_costs(5, 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(graph.set_costs(0, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(graph.set_costs(0, 1.0, std::nan("")), InvalidArgument);
}

TEST(TypeTable, InternDeduplicatesAndRoundTrips) {
  TypeTable table;
  const TypeId map = table.intern("map");
  const TypeId reduce = table.intern("reduce");
  EXPECT_NE(map, reduce);
  EXPECT_EQ(table.intern("map"), map);
  EXPECT_EQ(table.intern("reduce"), reduce);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.name(map), "map");
  EXPECT_EQ(table.name(reduce), "reduce");
  EXPECT_GT(table.memory_bytes(), 0u);
}

TEST(TaskGraphBuilder, StreamsTasksAndEdges) {
  TaskGraphBuilder builder;
  builder.reserve(3, 2);
  const TypeId stage = builder.intern_type("stage");
  const TypeId sink = builder.intern_type("sink");
  EXPECT_EQ(builder.add_task(stage, 1.0), 0u);
  EXPECT_EQ(builder.add_task(stage, 2.0), 1u);
  EXPECT_EQ(builder.add_task(sink, 3.0), 2u);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  EXPECT_EQ(builder.task_count(), 3u);
  const TaskGraph graph = std::move(builder).finish();

  EXPECT_EQ(graph.task_count(), 3u);
  EXPECT_EQ(graph.dag().edge_count(), 2u);
  EXPECT_DOUBLE_EQ(graph.weight(1), 2.0);
  EXPECT_EQ(graph.type(0), "stage");
  EXPECT_EQ(graph.type_id(0), graph.type_id(1));
  EXPECT_NE(graph.type_id(0), graph.type_id(2));
  EXPECT_EQ(graph.type(2), "sink");
  // Costs start at zero until a cost model is applied.
  EXPECT_DOUBLE_EQ(graph.ckpt_cost(0), 0.0);
  EXPECT_DOUBLE_EQ(graph.recovery_cost(2), 0.0);
}

TEST(TaskGraphBuilder, FinishRejectsInvalidWeights) {
  TaskGraphBuilder builder;
  EXPECT_THROW(builder.add_task(99, 1.0), InvalidArgument);  // uninterned type id
  builder.add_task(builder.intern_type("t"), -1.0);
  EXPECT_THROW(std::move(builder).finish(), InvalidArgument);
}

TEST(TaskGraph, SpanViewsMatchAccessors) {
  TaskGraph graph = make_chain(std::vector<double>{2.0, 3.0, 5.0});
  graph.apply_cost_model(CostModel::proportional(0.5));
  ASSERT_EQ(graph.weights_view().size(), 3u);
  ASSERT_EQ(graph.ckpt_costs_view().size(), 3u);
  ASSERT_EQ(graph.recovery_costs_view().size(), 3u);
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    EXPECT_DOUBLE_EQ(graph.weights_view()[v], graph.weight(v));
    EXPECT_DOUBLE_EQ(graph.ckpt_costs_view()[v], graph.ckpt_cost(v));
    EXPECT_DOUBLE_EQ(graph.recovery_costs_view()[v], graph.recovery_cost(v));
  }
  EXPECT_GT(graph.memory_bytes(), 0u);
}

TEST(TaskGraph, EmptyGraphTotals) {
  const TaskGraph graph;
  EXPECT_EQ(graph.task_count(), 0u);
  EXPECT_DOUBLE_EQ(graph.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(graph.average_weight(), 0.0);
}

}  // namespace
}  // namespace fpsched
