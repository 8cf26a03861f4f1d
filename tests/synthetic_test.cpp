// Tests for the elementary synthetic DAG builders.
#include "workflows/synthetic.hpp"

#include <gtest/gtest.h>

#include "core/theory_chain.hpp"
#include "core/theory_fork.hpp"
#include "core/theory_join.hpp"
#include "dag/traversal.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace fpsched {
namespace {

using testing::graph_digest;

TEST(Synthetic, ChainShape) {
  const TaskGraph graph = make_chain(std::vector<double>{1.0, 2.0, 3.0});
  std::vector<VertexId> path;
  EXPECT_TRUE(is_chain(graph.dag(), &path));
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(graph.dag().edge_count(), 2u);
  EXPECT_THROW(make_chain(std::vector<double>{}), InvalidArgument);
}

TEST(Synthetic, UniformChain) {
  const TaskGraph graph = make_uniform_chain(5, 7.0);
  EXPECT_EQ(graph.task_count(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(graph.weight(v), 7.0);
}

TEST(Synthetic, ForkShape) {
  const TaskGraph graph = make_fork(10.0, std::vector<double>{1.0, 2.0, 3.0});
  VertexId src = 99;
  EXPECT_TRUE(is_fork(graph.dag(), &src));
  EXPECT_EQ(src, 0u);
  EXPECT_DOUBLE_EQ(graph.weight(0), 10.0);
  EXPECT_EQ(graph.dag().out_degree(0), 3u);
  EXPECT_FALSE(is_join(graph.dag()));
}

TEST(Synthetic, JoinShape) {
  const TaskGraph graph = make_join(std::vector<double>{1.0, 2.0, 3.0}, 10.0);
  VertexId sink = 99;
  EXPECT_TRUE(is_join(graph.dag(), &sink));
  EXPECT_EQ(sink, 3u);
  EXPECT_DOUBLE_EQ(graph.weight(3), 10.0);
  EXPECT_FALSE(is_fork(graph.dag()));
}

TEST(Synthetic, ForkJoinShape) {
  const TaskGraph graph = make_fork_join(3, 4, 2.0);
  EXPECT_EQ(graph.task_count(), 3u * 4u + 2u);
  EXPECT_EQ(graph.dag().sources().size(), 1u);
  EXPECT_EQ(graph.dag().sinks().size(), 1u);
  const auto levels = vertex_levels(graph.dag());
  EXPECT_EQ(*std::max_element(levels.begin(), levels.end()), 4u);
}

TEST(Synthetic, LayeredRandomIsValidAndConnectedDownward) {
  const TaskGraph graph =
      make_layered_random({.task_count = 60, .layer_count = 6, .edge_probability = 0.2,
                           .mean_weight = 10.0, .weight_cv = 0.5, .seed = 42});
  EXPECT_EQ(graph.task_count(), 60u);
  const auto levels = vertex_levels(graph.dag());
  // Every non-first-layer vertex has at least one predecessor.
  std::size_t with_preds = 0;
  for (VertexId v = 0; v < graph.task_count(); ++v)
    if (graph.dag().in_degree(v) > 0) ++with_preds;
  EXPECT_GE(with_preds, 60u - 60u / 6u - 10u);
  // Weights are positive.
  for (VertexId v = 0; v < graph.task_count(); ++v) EXPECT_GT(graph.weight(v), 0.0);
}

TEST(Synthetic, LayeredRandomDeterministicPerSeed) {
  const LayeredRandomConfig config{.task_count = 40, .layer_count = 5, .seed = 9};
  const TaskGraph a = make_layered_random(config);
  const TaskGraph b = make_layered_random(config);
  EXPECT_EQ(a.dag().edge_count(), b.dag().edge_count());
  EXPECT_EQ(a.weights(), b.weights());
}

TEST(Synthetic, PaperFigure1MatchesThePaper) {
  const TaskGraph graph = make_paper_figure1(10.0);
  EXPECT_EQ(graph.task_count(), 8u);
  const Dag& dag = graph.dag();
  EXPECT_TRUE(dag.has_edge(0, 3));
  EXPECT_TRUE(dag.has_edge(3, 5));
  EXPECT_TRUE(dag.has_edge(5, 6));
  EXPECT_TRUE(dag.has_edge(1, 2));
  EXPECT_TRUE(dag.has_edge(2, 4));
  EXPECT_TRUE(dag.has_edge(2, 7));
  EXPECT_TRUE(dag.has_edge(4, 6));
  EXPECT_EQ(dag.edge_count(), 7u);
  // Sources T0, T1; sinks T6, T7 — as drawn in the paper.
  const auto sources = dag.sources();
  const auto sinks = dag.sinks();
  EXPECT_EQ(std::vector<VertexId>(sources.begin(), sources.end()), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(std::vector<VertexId>(sinks.begin(), sinks.end()), (std::vector<VertexId>{6, 7}));
}

// Each gadget's whole graph (vertex count, types, weight bits, sorted
// edges) pinned as a digest. The theory suites and optimality_gap read
// these graphs, so a rewrite of a gadget must leave its digest as it is.
TEST(Synthetic, GadgetGraphsArePinned) {
  EXPECT_EQ(graph_digest(make_chain(std::vector<double>{1.0, 2.5, 0.1, 7.25})),
            0x0e3f8dc9964b4450ull);
  EXPECT_EQ(graph_digest(make_uniform_chain(6, 3.7)), 0x5909229840432023ull);
  EXPECT_EQ(graph_digest(make_fork(10.0, std::vector<double>{1.0, 2.0, 0.3})),
            0x8e06ed196da4e579ull);
  EXPECT_EQ(graph_digest(make_join(std::vector<double>{0.7, 2.0, 3.1}, 10.0)),
            0x0310766a6920c17eull);
  EXPECT_EQ(graph_digest(make_fork_join(3, 4, 2.5)), 0x8bf239c6421b8477ull);
  EXPECT_EQ(graph_digest(make_paper_figure1()), 0x9a7ce92542b7686eull);
  EXPECT_EQ(graph_digest(make_paper_figure1(0.3)), 0xce87bd6384a4e36eull);
}

TEST(Synthetic, LayeredRandomGraphsArePinned) {
  // Two seeds, constant and gamma weights: the digests pin the layer
  // draws, the weight draws and the edge draws, in that order.
  const std::pair<std::uint64_t, double> configs[] = {{7, 0.0}, {7, 0.5}, {42, 0.0}, {42, 0.5}};
  const std::uint64_t expected[] = {0x0cd5d93fd847ae1dull, 0xd83798c5bbd56ad1ull,
                                    0x7218c09118cda208ull, 0x19c177115a0f97b4ull};
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const auto [seed, cv] = configs[i];
    const TaskGraph graph = make_layered_random(
        {.task_count = 40, .layer_count = 5, .weight_cv = cv, .seed = seed});
    EXPECT_EQ(graph_digest(graph), expected[i]) << "seed " << seed << " cv " << cv;
  }
}

TEST(Synthetic, InvalidConfigurations) {
  EXPECT_THROW(make_fork(1.0, std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(make_join(std::vector<double>{}, 1.0), InvalidArgument);
  EXPECT_THROW(make_fork_join(0, 3, 1.0), InvalidArgument);
  EXPECT_THROW(make_layered_random({.task_count = 3, .layer_count = 9}), InvalidArgument);
}

}  // namespace
}  // namespace fpsched
