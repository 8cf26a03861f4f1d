// Tests for the Pegasus-like workflow generators: exact task counts,
// acyclicity, family-specific structure, and weight calibration.
#include "workflows/generator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "dag/traversal.hpp"
#include "support/error.hpp"

namespace fpsched {
namespace {

std::map<std::string, std::size_t> type_histogram(const TaskGraph& graph) {
  std::map<std::string, std::size_t> histogram;
  for (VertexId v = 0; v < graph.task_count(); ++v) ++histogram[graph.type(v)];
  return histogram;
}

// --- cross-family parameterized checks --------------------------------

class GeneratorEveryFamily
    : public ::testing::TestWithParam<std::tuple<WorkflowKind, std::size_t>> {};

TEST_P(GeneratorEveryFamily, ExactTaskCountAndValidDag) {
  const auto [kind, count] = GetParam();
  const TaskGraph graph = generate_workflow(kind, {.task_count = count, .seed = 7});
  EXPECT_EQ(graph.task_count(), count);
  // Dag construction already guarantees acyclicity; verify the topological
  // order covers every vertex and costs follow the default model.
  EXPECT_EQ(graph.dag().topological_order().size(), count);
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    EXPECT_GT(graph.weight(v), 0.0);
    EXPECT_NEAR(graph.ckpt_cost(v), 0.1 * graph.weight(v), 1e-12);
    EXPECT_DOUBLE_EQ(graph.ckpt_cost(v), graph.recovery_cost(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFamilies, GeneratorEveryFamily,
    ::testing::Combine(::testing::ValuesIn(all_workflow_kinds().begin(),
                                           all_workflow_kinds().end()),
                       ::testing::Values(std::size_t{50}, std::size_t{100}, std::size_t{137},
                                         std::size_t{300}, std::size_t{700})));

class GeneratorDeterminism : public ::testing::TestWithParam<WorkflowKind> {};

TEST_P(GeneratorDeterminism, SameSeedSameGraphDifferentSeedDifferentWeights) {
  const WorkflowKind kind = GetParam();
  const TaskGraph a = generate_workflow(kind, {.task_count = 100, .seed = 5});
  const TaskGraph b = generate_workflow(kind, {.task_count = 100, .seed = 5});
  const TaskGraph c = generate_workflow(kind, {.task_count = 100, .seed = 6});
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.dag().edge_count(), b.dag().edge_count());
  EXPECT_NE(a.weights(), c.weights());
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorDeterminism,
                         ::testing::ValuesIn(all_workflow_kinds().begin(),
                                             all_workflow_kinds().end()));

class GeneratorWeightScale : public ::testing::TestWithParam<WorkflowKind> {};

TEST_P(GeneratorWeightScale, AverageWeightNearPaperValue) {
  // Paper, Section 6.1: Montage ~10 s, Ligo ~220 s, CyberShake ~25 s,
  // Genome > 1000 s. Accept a generous band around those anchors.
  const WorkflowKind kind = GetParam();
  const TaskGraph graph = generate_workflow(kind, {.task_count = 400, .seed = 11});
  const double average = graph.average_weight();
  switch (kind) {
    case WorkflowKind::montage:
      EXPECT_GT(average, 5.0);
      EXPECT_LT(average, 20.0);
      break;
    case WorkflowKind::ligo:
      EXPECT_GT(average, 150.0);
      EXPECT_LT(average, 300.0);
      break;
    case WorkflowKind::cybershake:
      EXPECT_GT(average, 15.0);
      EXPECT_LT(average, 40.0);
      break;
    case WorkflowKind::genome:
      EXPECT_GT(average, 1000.0);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorWeightScale,
                         ::testing::ValuesIn(all_workflow_kinds().begin(),
                                             all_workflow_kinds().end()));

// --- family-specific structure -----------------------------------------

TEST(Montage, StructuralInvariants) {
  const TaskGraph graph = generate_montage({.task_count = 102, .seed = 3});
  const auto histogram = type_histogram(graph);
  EXPECT_EQ(histogram.at("mConcatFit"), 1u);
  EXPECT_EQ(histogram.at("mBgModel"), 1u);
  EXPECT_EQ(histogram.at("mImgtbl"), 1u);
  EXPECT_EQ(histogram.at("mAdd"), 1u);
  EXPECT_EQ(histogram.at("mShrink"), 1u);
  EXPECT_EQ(histogram.at("mJPEG"), 1u);
  EXPECT_EQ(histogram.at("mProjectPP"), histogram.at("mBackground"));
  EXPECT_GE(histogram.at("mDiffFit"), histogram.at("mProjectPP") - 1);
  // Sources are exactly the projections; single final sink (mJPEG).
  for (const VertexId v : graph.dag().sources()) EXPECT_EQ(graph.type(v), "mProjectPP");
  const auto sinks = graph.dag().sinks();
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(graph.type(sinks[0]), "mJPEG");
  // Every mDiffFit consumes exactly two projections.
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    if (graph.type(v) == "mDiffFit") {
      EXPECT_EQ(graph.dag().in_degree(v), 2u);
    }
    if (graph.type(v) == "mBackground") {
      EXPECT_EQ(graph.dag().in_degree(v), 2u);
    }
  }
}

TEST(Ligo, StructuralInvariants) {
  const TaskGraph graph = generate_ligo({.task_count = 110, .seed = 3});
  const auto histogram = type_histogram(graph);
  EXPECT_EQ(histogram.at("Thinca"), histogram.at("Thinca2"));
  EXPECT_GE(histogram.at("TmpltBank"), histogram.at("Inspiral"));
  EXPECT_EQ(histogram.at("TrigBank"), histogram.at("Inspiral2"));
  // Template banks are the sources.
  for (const VertexId v : graph.dag().sources()) EXPECT_EQ(graph.type(v), "TmpltBank");
  // Every Inspiral feeds a Thinca.
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    if (graph.type(v) == "Inspiral") {
      ASSERT_EQ(graph.dag().out_degree(v), 1u);
      EXPECT_EQ(graph.type(graph.dag().successors(v)[0]), "Thinca");
    }
  }
}

TEST(CyberShake, StructuralInvariants) {
  const TaskGraph graph = generate_cybershake({.task_count = 100, .seed = 3});
  const auto histogram = type_histogram(graph);
  EXPECT_EQ(histogram.at("SeismogramSynthesis"), histogram.at("PeakValCalc"));
  EXPECT_EQ(histogram.at("ZipSeis"), histogram.at("ZipPSA"));
  EXPECT_GE(histogram.at("ExtractSGT"), 2u * histogram.at("ZipSeis"));
  for (const VertexId v : graph.dag().sources()) EXPECT_EQ(graph.type(v), "ExtractSGT");
  // Each synthesis: one extract in, feeds peak calc + zip.
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    if (graph.type(v) == "SeismogramSynthesis") {
      EXPECT_EQ(graph.dag().in_degree(v), 1u);
      EXPECT_EQ(graph.dag().out_degree(v), 2u);
    }
  }
}

TEST(Genome, StructuralInvariants) {
  const TaskGraph graph = generate_genome({.task_count = 126, .seed = 3});
  const auto histogram = type_histogram(graph);
  EXPECT_EQ(histogram.at("maqIndex"), 1u);
  EXPECT_EQ(histogram.at("pileup"), 1u);
  EXPECT_EQ(histogram.at("fastqSplit"), histogram.at("mapMerge"));
  EXPECT_EQ(histogram.at("filterContams"), histogram.at("map"));
  // The single global sink is the pileup.
  const auto sinks = graph.dag().sinks();
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(graph.type(sinks[0]), "pileup");
  // Chains: every filterContams has a fastqSplit predecessor.
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    if (graph.type(v) == "filterContams") {
      ASSERT_EQ(graph.dag().in_degree(v), 1u);
      EXPECT_EQ(graph.type(graph.dag().predecessors(v)[0]), "fastqSplit");
    }
  }
}

TEST(Generators, WeightCvZeroGivesDeterministicTypeMeans) {
  const TaskGraph graph = generate_montage({.task_count = 60, .seed = 1, .weight_cv = 0.0});
  // All tasks of a type share the exact mean weight.
  std::map<std::string, double> seen;
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    const auto [it, inserted] = seen.emplace(graph.type(v), graph.weight(v));
    if (!inserted) {
      EXPECT_DOUBLE_EQ(it->second, graph.weight(v)) << graph.type(v);
    }
  }
}

TEST(Generators, MinimumTaskCountsEnforced) {
  for (const WorkflowKind kind : all_workflow_kinds()) {
    const std::size_t minimum = minimum_task_count(kind);
    EXPECT_NO_THROW(generate_workflow(kind, {.task_count = minimum, .seed = 1}));
    EXPECT_THROW(generate_workflow(kind, {.task_count = minimum - 1, .seed = 1}),
                 InvalidArgument);
  }
}

// --- scale invariants ---------------------------------------------------

/// Invariants that must hold at any size: exact task count, acyclicity
/// (the topological order covers every vertex), positive weights, and the
/// type table round-trip (type(v) is the interned string for type_id(v)).
void expect_instance_invariants(const TaskGraph& graph, std::size_t count) {
  ASSERT_EQ(graph.task_count(), count);
  EXPECT_EQ(graph.dag().topological_order().size(), count);
  EXPECT_EQ(graph.weights_view().size(), count);
  EXPECT_EQ(graph.type_ids().size(), count);
  TypeTable types = graph.types();  // copy: intern() below must not mutate the graph
  EXPECT_GE(types.size(), 1u);
  for (VertexId v = 0; v < count; ++v) {
    EXPECT_GT(graph.weight(v), 0.0);
    const TypeId id = graph.type_id(v);
    ASSERT_LT(id, types.size());
    EXPECT_FALSE(types.name(id).empty());
    // Round-trip: interning the stored name again must yield the same id.
    EXPECT_EQ(types.intern(types.name(id)), id);
  }
  EXPECT_GT(graph.memory_bytes(), 0u);
}

class GeneratorScaleInvariants : public ::testing::TestWithParam<WorkflowKind> {};

TEST_P(GeneratorScaleInvariants, MinimumSize) {
  const WorkflowKind kind = GetParam();
  const std::size_t minimum = minimum_task_count(kind);
  expect_instance_invariants(generate_workflow(kind, {.task_count = minimum, .seed = 1}),
                             minimum);
}

TEST_P(GeneratorScaleInvariants, HundredThousandTasks) {
  const WorkflowKind kind = GetParam();
  constexpr std::size_t kCount = 100'000;
  const TaskGraph graph = generate_workflow(kind, {.task_count = kCount, .seed = 9});
  expect_instance_invariants(graph, kCount);
  // SoA storage: the whole instance (CSR + weights + costs + type ids)
  // must stay within ~120 bytes/task — the budget that makes 10^6 tasks
  // fit in well under 2 GB.
  EXPECT_LT(graph.memory_bytes(), kCount * 120);
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorScaleInvariants,
                         ::testing::ValuesIn(all_workflow_kinds().begin(),
                                             all_workflow_kinds().end()));

TEST(Generators, CostModelIsApplied) {
  const TaskGraph graph = generate_cybershake(
      {.task_count = 60, .seed = 2, .cost_model = CostModel::constant(5.0)});
  for (VertexId v = 0; v < graph.task_count(); ++v) {
    EXPECT_DOUBLE_EQ(graph.ckpt_cost(v), 5.0);
    EXPECT_DOUBLE_EQ(graph.recovery_cost(v), 5.0);
  }
}

TEST(Generators, PaperLambdas) {
  EXPECT_DOUBLE_EQ(paper_lambda(WorkflowKind::montage), 1e-3);
  EXPECT_DOUBLE_EQ(paper_lambda(WorkflowKind::ligo), 1e-3);
  EXPECT_DOUBLE_EQ(paper_lambda(WorkflowKind::cybershake), 1e-3);
  EXPECT_DOUBLE_EQ(paper_lambda(WorkflowKind::genome), 1e-4);
}

TEST(Generators, Names) {
  EXPECT_EQ(to_string(WorkflowKind::montage), "Montage");
  EXPECT_EQ(to_string(WorkflowKind::ligo), "Ligo");
  EXPECT_EQ(to_string(WorkflowKind::cybershake), "CyberShake");
  EXPECT_EQ(to_string(WorkflowKind::genome), "Genome");
}

}  // namespace
}  // namespace fpsched
