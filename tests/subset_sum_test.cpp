// Tests for the Theorem-2 NP-completeness gadget (SUBSET-SUM -> join).
#include "core/subset_sum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/theory_join.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace fpsched {
namespace {

using testing::expect_rel_near;
using testing::graph_digest;

TEST(SubsetSumSolver, PseudoPolynomialDp) {
  EXPECT_TRUE(subset_sum_solvable({{3, 5, 7}, 8}));     // 3 + 5
  EXPECT_TRUE(subset_sum_solvable({{3, 5, 7}, 15}));    // all
  EXPECT_TRUE(subset_sum_solvable({{3, 5, 7}, 7}));     // single
  EXPECT_FALSE(subset_sum_solvable({{3, 5, 7}, 4}));
  EXPECT_FALSE(subset_sum_solvable({{2, 4, 6}, 5}));    // parity
  EXPECT_TRUE(subset_sum_solvable({{1, 1, 1, 1}, 3}));
}

TEST(Reduction, BuildsAValidJoinGadget) {
  const SubsetSumReduction reduction = reduce_subset_sum({{3, 5, 7}, 8});
  EXPECT_EQ(reduction.graph.task_count(), 4u);
  EXPECT_TRUE(is_join(reduction.graph.dag()));
  EXPECT_DOUBLE_EQ(reduction.sum, 15.0);
  EXPECT_DOUBLE_EQ(reduction.target, 8.0);
  // lambda defaults to 1 / min value.
  expect_rel_near(1.0 / 3.0, reduction.model.lambda(), 1e-12);
  // Every c_i strictly positive, every r_i zero, sink weightless.
  for (VertexId v = 0; v + 1 < reduction.graph.task_count(); ++v) {
    EXPECT_GT(reduction.graph.ckpt_cost(v), 0.0);
    EXPECT_DOUBLE_EQ(reduction.graph.recovery_cost(v), 0.0);
  }
  EXPECT_DOUBLE_EQ(reduction.graph.weight(3), 0.0);
}

TEST(Reduction, GadgetGraphsArePinned) {
  // The whole graph, c_i and r_i included, pinned as a digest: the
  // threshold cases below read it, so a rewrite must leave it as it is.
  EXPECT_EQ(graph_digest(reduce_subset_sum({{3, 5, 7}, 8}).graph), 0x24e260961a4300a6ull);
  EXPECT_EQ(graph_digest(reduce_subset_sum({{4, 9, 6}, 10}, 0.5).graph), 0x9530af682163c1f6ull);
}

TEST(Reduction, CheckpointCostFormula) {
  // c_i = (X - w_i) + ln(lambda w_i + e^{-lambda X}) / lambda.
  const SubsetSumReduction reduction = reduce_subset_sum({{3, 5, 7}, 8});
  const double lambda = reduction.model.lambda();
  for (std::size_t i = 0; i < 3; ++i) {
    const double w = reduction.graph.weight(static_cast<VertexId>(i));
    const double expected = (8.0 - w) + std::log(lambda * w + std::exp(-lambda * 8.0)) / lambda;
    expect_rel_near(expected, reduction.graph.ckpt_cost(static_cast<VertexId>(i)), 1e-12);
  }
}

TEST(Reduction, GadgetCostTermCollapsesToLinear) {
  // The construction makes e^{lambda (w_i + c_i)} - 1 == lambda e^{lambda X} w_i
  // — the key step in the proof of Theorem 2.
  const SubsetSumReduction reduction = reduce_subset_sum({{4, 9, 6}, 10});
  const double lambda = reduction.model.lambda();
  for (std::size_t i = 0; i < 3; ++i) {
    const VertexId v = static_cast<VertexId>(i);
    const double w = reduction.graph.weight(v);
    const double c = reduction.graph.ckpt_cost(v);
    expect_rel_near(lambda * std::exp(lambda * reduction.target) * w,
                    std::expm1(lambda * (w + c)), 1e-9);
  }
}

TEST(Reduction, ExpectedTimeMatchesCorollary2OnTheGadget) {
  // gadget_expected_time (the E(W) polynomial) must agree with the
  // Corollary-2 evaluation of the actual join gadget, in units of
  // (1/lambda + D).
  const SubsetSumReduction reduction = reduce_subset_sum({{3, 5, 7}, 8});
  const double unit = 1.0 / reduction.model.lambda();
  // Non-checkpointed set {0, 1}: W = 8.
  const double direct =
      join_expected_time_zero_recovery(reduction.graph, reduction.model, {2});
  expect_rel_near(gadget_expected_time(reduction, 8.0), direct / unit, 1e-9);
}

TEST(Reduction, ThresholdAttainedIffYesInstance) {
  const std::vector<SubsetSumInstance> yes_instances = {
      {{3, 5, 7}, 8}, {{2, 4, 6, 8}, 10}, {{1, 2, 5, 9}, 16}, {{10, 20, 30}, 60},
  };
  const std::vector<SubsetSumInstance> no_instances = {
      {{3, 5, 7}, 9}, {{2, 4, 6, 8}, 11}, {{10, 20, 30}, 35}, {{5, 5, 5}, 7},
  };
  for (const auto& instance : yes_instances) {
    ASSERT_TRUE(subset_sum_solvable(instance));
    const SubsetSumReduction reduction = reduce_subset_sum(instance);
    EXPECT_TRUE(gadget_reaches_threshold(reduction)) << "target " << instance.target;
  }
  for (const auto& instance : no_instances) {
    ASSERT_FALSE(subset_sum_solvable(instance));
    const SubsetSumReduction reduction = reduce_subset_sum(instance);
    EXPECT_FALSE(gadget_reaches_threshold(reduction)) << "target " << instance.target;
  }
}

TEST(Reduction, EWIsMinimizedExactlyAtTheTarget) {
  const SubsetSumReduction reduction = reduce_subset_sum({{3, 5, 7}, 8});
  const double at_target = gadget_expected_time(reduction, 8.0);
  expect_rel_near(reduction.threshold, at_target, 1e-12);
  for (const double w : {0.0, 3.0, 5.0, 7.0, 10.0, 12.0, 15.0}) {
    if (w != 8.0) {
      EXPECT_GT(gadget_expected_time(reduction, w), at_target);
    }
  }
}

TEST(Reduction, InputValidation) {
  EXPECT_THROW(reduce_subset_sum({{}, 1}), InvalidArgument);
  EXPECT_THROW(reduce_subset_sum({{3, -5}, 2}), InvalidArgument);
  EXPECT_THROW(reduce_subset_sum({{3, 5}, 0}), InvalidArgument);
  EXPECT_THROW(reduce_subset_sum({{3, 5}, 9}), InvalidArgument);   // > sum
  EXPECT_THROW(reduce_subset_sum({{3, 5}, 8}, 0.01), InvalidArgument);  // lambda too small
  EXPECT_THROW(reduce_subset_sum({{3, 9}, 7}), InvalidArgument);   // value above target
}

}  // namespace
}  // namespace fpsched
