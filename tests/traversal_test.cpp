// Tests for levels, reachability, outweights, and linearization
// validation.
#include "dag/traversal.hpp"

#include <gtest/gtest.h>

#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

Dag paper_dag() { return make_paper_figure1(1.0).dag(); }

TEST(Traversal, LevelsOnPaperFigure1) {
  const auto levels = vertex_levels(paper_dag());
  // T0, T1 are sources (level 0); T3, T2 level 1; T5, T4, T7 level 2;
  // T6 level 3.
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 0u);
  EXPECT_EQ(levels[3], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[5], 2u);
  EXPECT_EQ(levels[4], 2u);
  EXPECT_EQ(levels[7], 2u);
  EXPECT_EQ(levels[6], 3u);
}

TEST(Reachability, PaperFigure1) {
  const Reachability reach(paper_dag());
  EXPECT_TRUE(reach.reaches(0, 3));
  EXPECT_TRUE(reach.reaches(0, 6));   // 0 -> 3 -> 5 -> 6
  EXPECT_TRUE(reach.reaches(1, 7));   // 1 -> 2 -> 7
  EXPECT_TRUE(reach.reaches(1, 6));   // 1 -> 2 -> 4 -> 6
  EXPECT_FALSE(reach.reaches(0, 7));
  EXPECT_FALSE(reach.reaches(3, 4));
  EXPECT_FALSE(reach.reaches(6, 0));  // no backwards reachability
  EXPECT_FALSE(reach.reaches(5, 5));  // strict
}

TEST(Reachability, DescendantCountsAndWeights) {
  const TaskGraph graph = make_paper_figure1(2.0);
  const Reachability reach(graph.dag());
  EXPECT_EQ(reach.descendant_count(0), 3u);  // 3, 5, 6
  EXPECT_EQ(reach.descendant_count(1), 4u);  // 2, 4, 6, 7
  EXPECT_EQ(reach.descendant_count(6), 0u);
  EXPECT_DOUBLE_EQ(reach.descendant_weight(0, graph.weights()), 6.0);
}

TEST(Reachability, LargeGraphCrossesWordBoundaries) {
  // > 64 vertices exercises multi-word bitset rows.
  const TaskGraph chain = make_uniform_chain(130, 1.0);
  const Reachability reach(chain.dag());
  EXPECT_TRUE(reach.reaches(0, 129));
  EXPECT_TRUE(reach.reaches(63, 64));
  EXPECT_FALSE(reach.reaches(129, 0));
  EXPECT_EQ(reach.descendant_count(0), 129u);
}

TEST(Outweights, DirectSuccessorsOnly) {
  const TaskGraph graph = make_paper_figure1(1.0);
  const auto out = direct_outweights(graph.dag(), graph.weights());
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // successor: T3
  EXPECT_DOUBLE_EQ(out[2], 2.0);  // successors: T4, T7
  EXPECT_DOUBLE_EQ(out[6], 0.0);  // sink
}

TEST(Outweights, DescendantsVariantCountsWholeSubgraph) {
  const TaskGraph graph = make_paper_figure1(1.0);
  const auto out = descendant_outweights(graph.dag(), graph.weights());
  EXPECT_DOUBLE_EQ(out[0], 3.0);  // {3, 5, 6}
  EXPECT_DOUBLE_EQ(out[1], 4.0);  // {2, 4, 6, 7}
  EXPECT_DOUBLE_EQ(out[6], 0.0);
}

TEST(Linearization, Validation) {
  const Dag dag = paper_dag();
  EXPECT_TRUE(is_valid_linearization(dag, std::vector<VertexId>{0, 3, 1, 2, 4, 5, 6, 7}));
  EXPECT_TRUE(is_valid_linearization(dag, std::vector<VertexId>{1, 2, 0, 3, 7, 4, 5, 6}));
  // Dependency violated: T3 before T0.
  EXPECT_FALSE(is_valid_linearization(dag, std::vector<VertexId>{3, 0, 1, 2, 4, 5, 6, 7}));
  // Not a permutation.
  EXPECT_FALSE(is_valid_linearization(dag, std::vector<VertexId>{0, 0, 1, 2, 4, 5, 6, 7}));
  // Wrong length.
  EXPECT_FALSE(is_valid_linearization(dag, std::vector<VertexId>{0, 1, 2}));
}

}  // namespace
}  // namespace fpsched
