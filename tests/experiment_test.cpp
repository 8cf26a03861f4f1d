// Experiment-API suite: registry lookup and error reporting, the paper
// figure registrations, deterministic shard partitioning, and the
// headline guarantee of the record-level sinks — sharded NDJSON streams
// concatenate to the bit-identical unsharded output.
#include "engine/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/evaluator_naive.hpp"
#include "engine/result_sink.hpp"
#include "heuristics/heuristic.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace fpsched::engine {
namespace {

// --- Registry ----------------------------------------------------------

TEST(ExperimentRegistryTest, GlobalRegistryKnowsThePaperFigures) {
  ExperimentRegistry& registry = ExperimentRegistry::global();
  for (const std::string name :
       {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "downtime", "theory"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.find(name).name, name);
  }
  EXPECT_GE(registry.experiments().size(), 8u);
}

TEST(ExperimentRegistryTest, UnknownNameErrorListsRegisteredNames) {
  try {
    ExperimentRegistry::global().find("fig9");
    FAIL() << "expected an unknown-experiment rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown experiment 'fig9'"), std::string::npos) << what;
    EXPECT_NE(what.find("fig2"), std::string::npos) << what;
    EXPECT_NE(what.find("downtime"), std::string::npos) << what;
  }
}

TEST(ExperimentRegistryTest, RejectsDuplicatesAndMalformedExperiments) {
  ExperimentRegistry registry;
  const auto build = [](const FigureOptions&) { return FigurePlan{}; };
  registry.add({"exp", "summary", build});
  EXPECT_THROW(registry.add({"exp", "again", build}), Error);
  EXPECT_THROW(registry.add({"", "nameless", build}), Error);
  EXPECT_THROW(registry.add({"builderless", "summary", nullptr}), Error);
  EXPECT_FALSE(registry.contains("builderless"));
}

TEST(ExperimentRegistryTest, ListsInRegistrationOrder) {
  ExperimentRegistry registry;
  const auto build = [](const FigureOptions&) { return FigurePlan{}; };
  registry.add({"zz", "", build});
  registry.add({"aa", "", build});
  const auto experiments = registry.experiments();
  ASSERT_EQ(experiments.size(), 2u);
  EXPECT_EQ(experiments[0]->name, "zz");
  EXPECT_EQ(experiments[1]->name, "aa");
}

// --- Figure builders ---------------------------------------------------

TEST(ExperimentFiguresTest, Fig2BuildsThreePanelsOverTheSizeAxis) {
  FigureOptions options;
  options.sizes = {50, 100};
  const FigurePlan plan = ExperimentRegistry::global().find("fig2").build(options);
  EXPECT_NE(plan.heading.find("Figure 2"), std::string::npos);
  ASSERT_EQ(plan.panels.size(), 3u);
  EXPECT_EQ(plan.panels[0].slug, "fig2a_cybershake");
  EXPECT_EQ(plan.panels[1].slug, "fig2b_ligo");
  EXPECT_EQ(plan.panels[2].slug, "fig2c_genome");
  for (const PanelSpec& panel : plan.panels) {
    EXPECT_EQ(panel.grid.axis, GridAxis::task_count);
    EXPECT_EQ(panel.grid.xs, (std::vector<double>{50, 100}));
    EXPECT_EQ(panel.grid.policies.size(), 6u);  // {DF,BF,RF} x {CkptW,CkptC}
  }
  EXPECT_FALSE(plan.notes.empty());
}

TEST(ExperimentFiguresTest, Fig7UsesTheTasksOption) {
  FigureOptions options;
  options.tasks = 123;
  const FigurePlan plan = ExperimentRegistry::global().find("fig7").build(options);
  EXPECT_NE(plan.heading.find("123 tasks"), std::string::npos);
  ASSERT_EQ(plan.panels.size(), 4u);
  for (const PanelSpec& panel : plan.panels) {
    EXPECT_EQ(panel.grid.axis, GridAxis::lambda);
    EXPECT_EQ(panel.grid.base.task_count, 123u);
  }
}

TEST(ExperimentFiguresTest, DowntimeSweepRejectsNegativeDowntimes) {
  // The option table's downtimes row rejects them, naming the option,
  // wherever the options come from; run_experiment runs that check.
  FigureOptions options;
  options.downtimes = {0.0, -5.0};
  try {
    check_figure_options(options);
    FAIL() << "a negative downtime must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("downtimes"), std::string::npos) << e.what();
  }
  EXPECT_THROW(
      run_experiment(ExperimentRegistry::global().find("downtime"), options, {}, nullptr),
      InvalidArgument);
}

/// 64-bit FNV-1a digest of what a plan runs and shows: every flattened
/// position's panel slug and canonical spec, then each panel's axis,
/// points and series names as assemble_panel lays them out (over
/// default-constructed results, so no evaluator runs).
std::uint64_t plan_digest(const FigurePlan& plan) {
  std::string text;
  for (const PlannedScenario& planned : flatten_plan(plan)) {
    text += planned.panel + ' ' + canonical_spec_string(planned.spec) + '\n';
  }
  for (const PanelSpec& panel : plan.panels) {
    const std::vector<ScenarioResult> results(panel.grid.scenario_count());
    const Panel assembled = assemble_panel(panel.grid, results, panel.title);
    text += to_string(assembled.axis);
    for (const double x : assembled.xs) text += ' ' + format_double_full(x);
    for (const PanelSeries& series : assembled.series) text += " | " + series.name;
    text += '\n';
  }
  return fnv1a64(text);
}

TEST(ExperimentFiguresTest, PlansArePinned) {
  // Every registered plan, at the default options and after --quick:
  // the scenarios it runs, in order, and the panels it draws. The
  // digests were recorded before ScenarioGrid became a base spec plus
  // one axis, so the grid's shape can change but no plan can.
  struct Pin {
    const char* name;
    std::uint64_t full;
    std::uint64_t quick;
  };
  const Pin pins[] = {
      {"fig2", 0xfe3fcdfe1ff0e0b8ull, 0xf8f90462251157acull},
      {"fig3", 0x6feb56a5b6230e7dull, 0xa84b0e5b773912b9ull},
      {"fig4", 0x467a76b50fa49518ull, 0xb80020dd6d00aa44ull},
      {"fig5", 0xd21d09eeda3d6009ull, 0x0032afec0e07ae7dull},
      {"fig6", 0x6865e6bab20a7895ull, 0x9e829b2865320771ull},
      {"fig7", 0xe7830304e0da0827ull, 0x7e4d9f8a6442cb7dull},
      {"downtime", 0x3e2ab28dc3f861a9ull, 0x45900e50809b6d6full},
      {"theory", 0xd798eaac4a6b6e5bull, 0xb9816acbbc52eb6bull},
      {"robustness", 0xcff8ddf19cdb421dull, 0x21032511ca6c7dedull},
  };
  ASSERT_EQ(std::size(pins), ExperimentRegistry::global().experiments().size());
  FigureOptions quick;
  apply_quick_options(quick);
  for (const Pin& pin : pins) {
    const Experiment& experiment = ExperimentRegistry::global().find(pin.name);
    EXPECT_EQ(plan_digest(experiment.build(FigureOptions{})), pin.full)
        << pin.name << " (full) digest 0x" << std::hex
        << plan_digest(experiment.build(FigureOptions{}));
    EXPECT_EQ(plan_digest(experiment.build(quick)), pin.quick)
        << pin.name << " (quick) digest 0x" << std::hex << plan_digest(experiment.build(quick));
  }
}

// --- Shard partitioning ------------------------------------------------

TEST(ExperimentFiguresTest, TheoryBuildsFourFixedSizePanels) {
  const FigurePlan plan = ExperimentRegistry::global().find("theory").build({});
  ASSERT_EQ(plan.panels.size(), 4u);
  for (const PanelSpec& panel : plan.panels) {
    // Fixed small sizes, independent of --sizes: the grid must stay
    // replayable by the exhaustive Algorithm-1 cross-check below.
    EXPECT_EQ(panel.grid.axis, GridAxis::task_count);
    EXPECT_EQ(panel.grid.xs, (std::vector<double>{20, 26, 32}));
    EXPECT_EQ(panel.grid.base.model.downtime(), 1.0);
    EXPECT_FALSE(panel.grid.policies.empty());
  }
  EXPECT_NE(plan.notes.find("theory_fork_test"), std::string::npos);
}

TEST(ExperimentFiguresTest, TheoryGridCellsMatchAlgorithmOne) {
  // Theorem 3, cell by cell: every schedule the theory grid evaluates
  // must agree with the literal Algorithm-1 transcription to 1e-9. The
  // grid's sizes (<= 32) keep the naive O(n^3) replay in tier-1 time.
  const FigurePlan plan = ExperimentRegistry::global().find("theory").build({});
  std::size_t checked = 0;
  for (const PlannedScenario& planned : flatten_plan(plan)) {
    const ScenarioSpec& spec = planned.spec;
    const TaskGraph graph = spec.instantiate();
    const ScheduleEvaluator evaluator(graph, spec.model);
    HeuristicOptions options;
    options.linearize = spec.linearize;
    options.stride = spec.stride;
    options.eval = spec.eval_math;
    // The DF member of each policy (every strategy considers it); the
    // engine's best-lin selection only picks among such runs.
    const HeuristicResult run = run_heuristic(
        evaluator, {LinearizeMethod::depth_first, spec.policy.strategy}, options);
    fpsched::testing::assert_rel_near(evaluate_reference(graph, spec.model, run.schedule),
                                      run.evaluation.expected_makespan, 1e-9,
                                      spec.label().c_str());
    ++checked;
  }
  EXPECT_GE(checked, 4u * 3u);  // 4 kinds x 3 sizes x strategies
}

TEST(ShardSpecTest, ParsesWellFormedSpecs) {
  const ShardSpec whole = ShardSpec::parse("1/1");
  EXPECT_FALSE(whole.active());
  const ShardSpec second = ShardSpec::parse("2/4");
  EXPECT_EQ(second.index, 2u);
  EXPECT_EQ(second.count, 4u);
  EXPECT_TRUE(second.active());
}

TEST(ShardSpecTest, RejectsMalformedSpecs) {
  for (const std::string bad : {"", "2", "0/2", "3/2", "1/0", "a/2", "1/b", "1/2/3", "-1/2"}) {
    EXPECT_THROW(ShardSpec::parse(bad), Error) << "'" << bad << "'";
  }
}

TEST(ShardRangeTest, ShardsTileTheListContiguouslyAndExhaustively) {
  for (const std::size_t total : {0u, 1u, 7u, 24u, 100u}) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 13u}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (std::size_t index = 1; index <= count; ++index) {
        const auto [begin, end] = shard_range(total, {index, count});
        EXPECT_EQ(begin, expected_begin) << total << " " << index << "/" << count;
        EXPECT_LE(begin, end);
        // Balanced to within one element.
        EXPECT_LE(end - begin, total / count + 1);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ShardRangeTest, RejectsOutOfRangeShards) {
  EXPECT_THROW(shard_range(10, {0, 2}), Error);
  EXPECT_THROW(shard_range(10, {3, 2}), Error);
}

// --- run_experiment ----------------------------------------------------

/// A tiny two-panel experiment, cheap enough for unit tests: 2 sizes x 2
/// policies on Montage plus 1 size x 2 policies on CyberShake = 6
/// scenarios, strided sweeps throughout.
Experiment tiny_experiment() {
  return {"tiny", "two tiny panels", [](const FigureOptions& options) {
            FigurePlan plan;
            plan.heading = "tiny experiment";
            ScenarioGrid first;
            first.base.workflow = WorkflowKind::montage;
            first.base.stride = 16;
            first.xs.assign(options.sizes.begin(), options.sizes.end());
            first.policies = {
                ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight}),
                ScenarioPolicy::fixed({LinearizeMethod::breadth_first, CkptStrategy::by_cost}),
            };
            ScenarioGrid second = first;
            second.base.workflow = WorkflowKind::cybershake;
            second.xs.resize(1);
            plan.panels = {{first, "panel one", "tiny_one"}, {second, "panel two", "tiny_two"}};
            plan.notes = "done\n";
            return plan;
          }};
}

FigureOptions tiny_options() {
  FigureOptions options;
  options.sizes = {50, 60};
  return options;
}

std::string run_ndjson(const Experiment& experiment, const FigureOptions& options,
                       const ShardSpec& shard) {
  std::ostringstream os;
  NdjsonSink sink(os);
  const std::vector<ResultSink*> sinks{&sink};
  run_experiment(experiment, options, sinks, nullptr, shard);
  return os.str();
}

TEST(RunExperimentTest, StreamsRecordsAndPanelsThroughTheSinks) {
  const Experiment experiment = tiny_experiment();
  std::ostringstream records;
  std::ostringstream panels;
  NdjsonSink ndjson(records);
  TableSink table(panels);
  std::ostringstream text;
  const std::vector<ResultSink*> sinks{&ndjson, &table};
  run_experiment(experiment, tiny_options(), sinks, &text);

  const std::string record_out = records.str();
  EXPECT_EQ(std::count(record_out.begin(), record_out.end(), '\n'), 6);  // 4 + 2 scenarios
  EXPECT_NE(record_out.find("\"experiment\":\"tiny\""), std::string::npos);
  EXPECT_NE(record_out.find("\"panel\":\"tiny_one\""), std::string::npos);
  EXPECT_NE(record_out.find("\"panel\":\"tiny_two\""), std::string::npos);

  EXPECT_NE(panels.str().find("=== panel one ==="), std::string::npos);
  EXPECT_NE(panels.str().find("=== panel two ==="), std::string::npos);
  EXPECT_EQ(text.str(), "tiny experiment\ndone\n");
}

TEST(RunExperimentTest, ShardedNdjsonStreamsConcatenateBitIdentically) {
  const Experiment experiment = tiny_experiment();
  const FigureOptions options = tiny_options();
  const std::string unsharded = run_ndjson(experiment, options, {});
  ASSERT_FALSE(unsharded.empty());

  for (const std::size_t count : {2u, 3u, 5u}) {
    std::string merged;
    for (std::size_t index = 1; index <= count; ++index) {
      merged += run_ndjson(experiment, options, {index, count});
    }
    EXPECT_EQ(merged, unsharded) << count << " shards";
  }
}

TEST(RunExperimentTest, DegenerateShardCountsProduceEmptyShardsThatStillConcatenate) {
  // The tiny experiment has 6 scenarios; sharding 7/9/20 ways leaves
  // some shards with an empty slice. Those runs must stream nothing
  // (and not crash), and the concatenation must stay bit-identical.
  const Experiment experiment = tiny_experiment();
  const FigureOptions options = tiny_options();
  const std::string unsharded = run_ndjson(experiment, options, {});

  for (const std::size_t count : {7u, 9u, 20u}) {
    std::string merged;
    std::size_t empty_shards = 0;
    for (std::size_t index = 1; index <= count; ++index) {
      const std::string shard = run_ndjson(experiment, options, {index, count});
      if (shard.empty()) ++empty_shards;
      merged += shard;
    }
    EXPECT_GT(empty_shards, 0u) << count << " shards over 6 scenarios";
    EXPECT_EQ(merged, unsharded) << count << " shards";
  }
}

TEST(RunExperimentTest, FlattenPlanMatchesRecordOrder) {
  const Experiment experiment = tiny_experiment();
  const FigureOptions options = tiny_options();
  const std::vector<PlannedScenario> flattened = flatten_plan(experiment.build(options));
  ASSERT_EQ(flattened.size(), 6u);  // 4 + 2 scenarios

  // The flattened sequence is exactly what run_experiment streams:
  // panel slugs in panel order, spec.scenario_index grid-local.
  EXPECT_EQ(flattened[0].panel, "tiny_one");
  EXPECT_EQ(flattened[3].panel, "tiny_one");
  EXPECT_EQ(flattened[4].panel, "tiny_two");
  EXPECT_EQ(flattened[4].spec.scenario_index, 0u);
  std::ostringstream os;
  NdjsonSink sink(os);
  const std::vector<ResultSink*> sinks{&sink};
  run_experiment(experiment, options, sinks, nullptr);
  std::istringstream lines(os.str());
  std::string line;
  for (const PlannedScenario& planned : flattened) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"panel\":\"" + planned.panel + "\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"scenario_index\":" +
                        std::to_string(planned.spec.scenario_index)),
              std::string::npos)
        << line;
  }
  EXPECT_FALSE(std::getline(lines, line));  // no extra records
}

TEST(ExperimentOptionsTest, ApplyQuickShrinksTheGridAndKeepsLargerStrides) {
  FigureOptions options;
  options.sizes = {600, 700};
  options.stride = 1;
  apply_quick_options(options);
  EXPECT_EQ(options.sizes, (std::vector<std::size_t>{50, 100, 200, 300}));
  EXPECT_EQ(options.stride, 4u);
  options.stride = 16;  // an explicit coarser stride survives quick
  apply_quick_options(options);
  EXPECT_EQ(options.stride, 16u);
}

TEST(RunExperimentTest, ShardedRunsSkipPanelAssembly) {
  const Experiment experiment = tiny_experiment();
  std::ostringstream panels;
  TableSink table(panels);
  std::ostringstream text;
  const std::vector<ResultSink*> sinks{&table};
  run_experiment(experiment, tiny_options(), sinks, &text, {1, 2});
  EXPECT_EQ(panels.str(), "");           // no panel can be assembled from half a grid
  EXPECT_NE(text.str().find("tiny experiment"), std::string::npos);
}

}  // namespace
}  // namespace fpsched::engine
