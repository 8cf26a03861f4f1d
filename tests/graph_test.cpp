// Tests for the CSR DAG container and builder.
#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

namespace fpsched {
namespace {

Dag diamond() {
  DagBuilder builder;
  builder.add_vertices(4);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(2, 3);
  return std::move(builder).build();
}

TEST(Dag, EmptyGraph) {
  DagBuilder builder;
  const Dag dag = std::move(builder).build();
  EXPECT_EQ(dag.vertex_count(), 0u);
  EXPECT_EQ(dag.edge_count(), 0u);
  EXPECT_TRUE(dag.sources().empty());
  EXPECT_TRUE(dag.topological_order().empty());
}

TEST(Dag, DiamondAdjacency) {
  const Dag dag = diamond();
  EXPECT_EQ(dag.vertex_count(), 4u);
  EXPECT_EQ(dag.edge_count(), 4u);
  EXPECT_EQ(dag.in_degree(0), 0u);
  EXPECT_EQ(dag.out_degree(0), 2u);
  EXPECT_EQ(dag.in_degree(3), 2u);
  const auto preds3 = dag.predecessors(3);
  EXPECT_EQ(std::vector<VertexId>(preds3.begin(), preds3.end()), (std::vector<VertexId>{1, 2}));
  const auto succs0 = dag.successors(0);
  EXPECT_EQ(std::vector<VertexId>(succs0.begin(), succs0.end()), (std::vector<VertexId>{1, 2}));
}

TEST(Dag, SourcesAndSinks) {
  const Dag dag = diamond();
  const auto sources = dag.sources();
  const auto sinks = dag.sinks();
  EXPECT_EQ(std::vector<VertexId>(sources.begin(), sources.end()), std::vector<VertexId>{0});
  EXPECT_EQ(std::vector<VertexId>(sinks.begin(), sinks.end()), std::vector<VertexId>{3});
}

TEST(Dag, HasEdge) {
  const Dag dag = diamond();
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_TRUE(dag.has_edge(2, 3));
  EXPECT_FALSE(dag.has_edge(1, 0));
  EXPECT_FALSE(dag.has_edge(0, 3));
}

TEST(Dag, DuplicateEdgesAreDeduplicated) {
  DagBuilder builder;
  builder.add_vertices(2);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  const Dag dag = std::move(builder).build();
  EXPECT_EQ(dag.edge_count(), 1u);
}

TEST(Dag, TopologicalOrderIsDeterministicSmallestFirst) {
  // Two independent chains: 0->2, 1->3. Kahn with a min-heap gives
  // 0 1 2 3.
  DagBuilder builder;
  builder.add_vertices(4);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  const Dag dag = std::move(builder).build();
  const auto topo = dag.topological_order();
  EXPECT_EQ(std::vector<VertexId>(topo.begin(), topo.end()), (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag dag = diamond();
  const auto topo = dag.topological_order();
  std::vector<std::size_t> pos(dag.vertex_count());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (VertexId v = 0; v < dag.vertex_count(); ++v) {
    for (const VertexId s : dag.successors(v)) EXPECT_LT(pos[v], pos[s]);
  }
}

TEST(Dag, CycleDetection) {
  DagBuilder builder;
  builder.add_vertices(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  EXPECT_THROW(std::move(builder).build(), GraphError);
}

TEST(Dag, SelfLoopRejectedImmediately) {
  DagBuilder builder;
  builder.add_vertices(2);
  EXPECT_THROW(builder.add_edge(1, 1), GraphError);
}

TEST(Dag, OutOfRangeEdgeRejected) {
  DagBuilder builder;
  builder.add_vertices(2);
  EXPECT_THROW(builder.add_edge(0, 5), GraphError);
}

TEST(DagBuilder, AddVerticesReturnsFirstId) {
  DagBuilder builder;
  EXPECT_EQ(builder.add_vertex(), 0u);
  EXPECT_EQ(builder.add_vertices(5), 1u);
  EXPECT_EQ(builder.add_vertex(), 6u);
  EXPECT_EQ(builder.vertex_count(), 7u);
}

}  // namespace
}  // namespace fpsched
