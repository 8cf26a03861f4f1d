// Shard-merge suite: the multi-host guarantee — validated concatenation
// of per-shard NDJSON files reproduces the unsharded stream bit for bit,
// including degenerate shardings (more shards than scenarios, empty
// shards) — and the failure modes (misordered/duplicated/missing shards,
// truncated files, option mismatches, edited records) that must fail
// loudly. The last test walks the option table: every option reaches the
// records, the cache keys and so the merge.
#include "service/shard_merge.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/result_sink.hpp"
#include "service/result_cache.hpp"
#include "support/error.hpp"

namespace fpsched::service {
namespace {

/// A cheap one-panel experiment: 3 sizes x 2 policies = 6 scenarios.
engine::Experiment tiny_experiment() {
  return {"tinymerge", "merge test experiment", [](const engine::FigureOptions& options) {
            engine::FigurePlan plan;
            engine::ScenarioGrid grid;
            grid.base.workflow = WorkflowKind::montage;
            grid.base.workflow_seed = options.seed;
            grid.base.weight_cv = options.weight_cv;
            grid.base.eval_math = options.eval_math;
            grid.base.stride = 16;
            grid.xs.assign(options.sizes.begin(), options.sizes.end());
            grid.policies = {
                engine::ScenarioPolicy::fixed(
                    {LinearizeMethod::depth_first, CkptStrategy::by_weight}),
                engine::ScenarioPolicy::fixed(
                    {LinearizeMethod::breadth_first, CkptStrategy::by_cost}),
            };
            plan.panels = {{grid, "panel", "tinymerge_panel"}};
            return plan;
          }};
}

/// One simulated-best scenario per size at the first of the options'
/// downtimes, with the options' trial count: its records carry the
/// fields that --downtimes and --trials set.
engine::Experiment tiny_simulated_experiment() {
  return {"tinysim", "merge test experiment with a simulated policy",
          [](const engine::FigureOptions& options) {
            engine::FigurePlan plan;
            engine::ScenarioGrid grid;
            grid.base.workflow = WorkflowKind::montage;
            grid.base.model = FailureModel(1e-3, options.downtimes.front());
            grid.base.eval_math = options.eval_math;
            grid.base.stride = 16;
            grid.xs.assign(options.sizes.begin(), options.sizes.end());
            grid.policies = {engine::ScenarioPolicy::simulated(
                engine::ScenarioPolicy::SimDistribution::exponential, 1.0, options.trials)};
            plan.panels = {{grid, "panel", "tinysim_panel"}};
            return plan;
          }};
}

engine::FigureOptions tiny_options() {
  engine::FigureOptions options;
  options.sizes = {50, 60, 70};
  return options;
}

std::string run_ndjson(const engine::Experiment& experiment,
                       const engine::FigureOptions& options, const engine::ShardSpec& shard) {
  std::ostringstream os;
  engine::NdjsonSink sink(os);
  engine::ResultSink* sinks[] = {&sink};
  engine::run_experiment(experiment, options, sinks, nullptr, shard);
  return os.str();
}

/// Writes per-shard files for `count` shards into a fresh temp dir and
/// returns their paths (shard order).
class ShardMergeTest : public ::testing::Test {
 protected:
  ShardMergeTest() : experiment_(tiny_experiment()) {
    dir_ = ::testing::TempDir() + "/fpsched_shard_merge_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    unsharded_ = run_ndjson(experiment_, tiny_options(), {});
  }
  ~ShardMergeTest() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& content) {
    const std::string path = dir_ + "/" + name;
    std::ofstream file(path, std::ios::binary);
    file << content;
    return path;
  }

  std::vector<std::string> write_shards(std::size_t count) {
    std::vector<std::string> paths;
    for (std::size_t index = 1; index <= count; ++index) {
      paths.push_back(write_file(
          "shard-" + std::to_string(index) + "-of-" + std::to_string(count) + ".ndjson",
          run_ndjson(experiment_, tiny_options(), {index, count})));
    }
    return paths;
  }

  std::string merge(const std::vector<std::string>& paths, bool require_complete = true) {
    std::ostringstream os;
    merge_ndjson_shards(experiment_, tiny_options(), paths, os, {require_complete});
    return os.str();
  }

  engine::Experiment experiment_;
  std::string dir_;
  std::string unsharded_;  // 6 scenarios worth of records
};

TEST_F(ShardMergeTest, MergesShardsBitIdentically) {
  for (const std::size_t count : {2u, 3u, 5u}) {
    EXPECT_EQ(merge(write_shards(count)), unsharded_) << count << " shards";
  }
}

TEST_F(ShardMergeTest, DegenerateShardingsStillMergeBitIdentically) {
  // More shards than the 6 scenarios: some shard files are empty, and
  // the merge must accept them and still reproduce the unsharded bytes.
  for (const std::size_t count : {7u, 9u, 20u}) {
    const std::vector<std::string> paths = write_shards(count);
    bool saw_empty = false;
    for (const std::string& path : paths) {
      saw_empty = saw_empty || std::filesystem::file_size(path) == 0;
    }
    EXPECT_TRUE(saw_empty) << count << " shards over 6 scenarios must include empty shards";
    EXPECT_EQ(merge(paths), unsharded_) << count << " shards";
  }
}

TEST_F(ShardMergeTest, MergesUnevenMixedShardCounts) {
  // Shards from different runs compose as long as they abut: 1/2 covers
  // [0,3), 3/4 covers [3,4)... here [0,3) + [3,4]-style uneven blocks.
  const std::string a = write_file("a.ndjson", run_ndjson(experiment_, tiny_options(), {1, 2}));
  const std::string b = write_file("b.ndjson", run_ndjson(experiment_, tiny_options(), {3, 4}));
  const std::string c = write_file("c.ndjson", run_ndjson(experiment_, tiny_options(), {4, 4}));
  EXPECT_EQ(merge({a, b, c}), unsharded_);
}

TEST_F(ShardMergeTest, AcceptsGaplessPrefixWithoutRequireComplete) {
  const std::vector<std::string> paths = write_shards(3);
  std::ostringstream os;
  const MergeReport report =
      merge_ndjson_shards(experiment_, tiny_options(), {paths[0], paths[1]}, os, {});
  EXPECT_EQ(report.records, 4u);
  EXPECT_EQ(report.expected, 6u);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(os.str(), unsharded_.substr(0, os.str().size()));
  EXPECT_THROW(merge({paths[0], paths[1]}, /*require_complete=*/true), InvalidArgument);
}

TEST_F(ShardMergeTest, RejectsMisorderedDuplicatedAndGappedShards) {
  const std::vector<std::string> paths = write_shards(3);
  EXPECT_THROW(merge({paths[1], paths[0], paths[2]}), InvalidArgument);  // misordered
  EXPECT_THROW(merge({paths[0], paths[0], paths[1]}), InvalidArgument);  // duplicated
  EXPECT_THROW(merge({paths[0], paths[2]}), InvalidArgument);            // gap
  EXPECT_THROW(merge({paths[1], paths[2]}), InvalidArgument);            // missing head
}

TEST_F(ShardMergeTest, RejectsForeignTruncatedAndUnreadableFiles) {
  const std::vector<std::string> paths = write_shards(2);
  // A record from different options (another seed) is out of sequence
  // in content even when indices line up — the experiment field of a
  // different experiment name fails first.
  const std::string foreign =
      write_file("foreign.ndjson",
                 "{\"experiment\":\"other\",\"panel\":\"tinymerge_panel\","
                 "\"scenario_index\":0}\n");
  EXPECT_THROW(merge({foreign, paths[1]}), InvalidArgument);

  const std::string full = run_ndjson(experiment_, tiny_options(), {});
  const std::string truncated =
      write_file("truncated.ndjson", full.substr(0, full.size() - 1));  // no trailing \n
  EXPECT_THROW(merge({truncated}), InvalidArgument);

  EXPECT_THROW(merge({dir_ + "/does-not-exist.ndjson"}), InvalidArgument);

  const std::string blank = write_file("blank.ndjson", "\n");
  EXPECT_THROW(merge({blank}), InvalidArgument);
}

TEST_F(ShardMergeTest, RejectsShardsProducedWithDifferentOptions) {
  // A shard from another seed has the identical panel/scenario_index
  // sequence — only the spec-field pinning catches it.
  engine::FigureOptions other = tiny_options();
  other.seed = 7;
  const std::string a =
      write_file("seed7-a.ndjson", run_ndjson(experiment_, other, {1, 2}));
  const std::string b =
      write_file("seed7-b.ndjson", run_ndjson(experiment_, other, {2, 2}));
  EXPECT_THROW(merge({a, b}), InvalidArgument);

  engine::FigureOptions wider = tiny_options();
  wider.weight_cv = 0.5;
  const std::string c = write_file("cv.ndjson", run_ndjson(experiment_, wider, {}));
  EXPECT_THROW(merge({c}), InvalidArgument);

  // --downtimes and --trials each move one value of a record and nothing
  // of the sequence.
  const engine::Experiment simulated = tiny_simulated_experiment();
  engine::FigureOptions expected = tiny_options();
  expected.trials = 50;
  const auto merge_simulated = [&](const engine::FigureOptions& producer) {
    const std::string shard = write_file("sim.ndjson", run_ndjson(simulated, producer, {}));
    std::ostringstream os;
    merge_ndjson_shards(simulated, expected, {shard}, os, {.require_complete = true});
    return os.str();
  };
  EXPECT_EQ(merge_simulated(expected), run_ndjson(simulated, expected, {}));
  engine::FigureOptions other_downtime = expected;
  other_downtime.downtimes = {60};
  EXPECT_THROW(merge_simulated(other_downtime), InvalidArgument);
  engine::FigureOptions fewer_trials = expected;
  fewer_trials.trials = 5;
  EXPECT_THROW(merge_simulated(fewer_trials), InvalidArgument);
}

TEST_F(ShardMergeTest, RejectsShardsOfTheOtherEvalMath) {
  // Fast and exact records share every spec field and the whole sequence;
  // only the fast records' eval_math field tells them apart.
  engine::FigureOptions fast = tiny_options();
  fast.eval_math = EvalMath::fast;
  std::vector<std::string> fast_paths;
  for (const std::size_t index : {1u, 2u}) {
    fast_paths.push_back(write_file("fast-" + std::to_string(index) + ".ndjson",
                                    run_ndjson(experiment_, fast, {index, 2})));
  }
  EXPECT_THROW(merge(fast_paths), InvalidArgument);  // fast shards, exact options

  const std::vector<std::string> exact_paths = write_shards(2);
  const auto merge_as_fast = [&](const std::vector<std::string>& paths) {
    std::ostringstream os;
    merge_ndjson_shards(experiment_, fast, paths, os, {.require_complete = true});
    return os.str();
  };
  EXPECT_THROW(merge_as_fast(exact_paths), InvalidArgument);  // exact shards, fast options
  EXPECT_EQ(merge_as_fast(fast_paths), run_ndjson(experiment_, fast, {}));
  EXPECT_EQ(merge(exact_paths), unsharded_);
}

TEST_F(ShardMergeTest, RejectsAnEditedSpecFieldAndNamesIt) {
  // Every field before "linearization" is pinned by one comparison: a
  // shard whose record says another lambda, policy, cost parameter or
  // simulation seed than its planned position does not merge.
  const auto edit = [&](const std::string& records, std::size_t line, const std::string& from,
                        const std::string& to) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < line; ++i) start = records.find('\n', start) + 1;
    const std::size_t at = records.find(from, start);
    EXPECT_LT(at, records.find('\n', start)) << from << " not on line " << line;
    std::string edited = records;
    edited.replace(at, from.size(), to);
    return write_file("edited.ndjson", edited);
  };
  const auto expect_named = [&](const engine::Experiment& experiment,
                                const engine::FigureOptions& options, const std::string& path,
                                const std::string& field) {
    try {
      std::ostringstream os;
      merge_ndjson_shards(experiment, options, {path}, os, {});
      ADD_FAILURE() << "a record with an edited " << field << " merged";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + field + "\":"), std::string::npos) << e.what();
    }
  };
  expect_named(experiment_, tiny_options(),
               edit(unsharded_, 0, "\"lambda\":0.001", "\"lambda\":0.002"), "lambda");
  expect_named(experiment_, tiny_options(),
               edit(unsharded_, 1, "\"policy\":\"BF-CkptC\"", "\"policy\":\"DF-CkptC\""),
               "policy");
  expect_named(experiment_, tiny_options(),
               edit(unsharded_, 2, "\"cost_parameter\":0.10000000000000001",
                    "\"cost_parameter\":0.5"),
               "cost_parameter");

  const engine::Experiment simulated = tiny_simulated_experiment();
  engine::FigureOptions options = tiny_options();
  options.trials = 50;
  expect_named(simulated, options,
               edit(run_ndjson(simulated, options, {}), 1, "\"sim_seed\":31",
                    "\"sim_seed\":32"),
               "sim_seed");
}

TEST_F(ShardMergeTest, ReportCountsFilesAndRecords) {
  const std::vector<std::string> paths = write_shards(4);
  std::ostringstream os;
  const MergeReport report = merge_ndjson_shards(experiment_, tiny_options(), paths, os,
                                                 {.require_complete = true});
  EXPECT_EQ(report.files, 4u);
  EXPECT_EQ(report.records, 6u);
  EXPECT_EQ(report.expected, 6u);
  EXPECT_TRUE(report.complete());
}

// --- The option table is the records' provenance -----------------------

TEST(OptionTableProvenanceTest, EveryRowReachesTheRecordTheCacheKeyAndTheMerge) {
  // A non-default value per row, with a registered experiment whose plan
  // reads it. A row the table gains without an entry here fails. Every
  // builder must honor the rows base_grid copies into each spec: those
  // must move every position of every registered experiment's plan.
  const std::map<std::string, std::pair<std::string, std::string>> changed = {
      {"sizes", {"60,70", "fig2"}},     {"stride", {"3", "fig2"}},
      {"seed", {"7", "fig2"}},          {"weight_cv", {"0.5", "fig4"}},
      {"eval_math", {"fast", "fig2"}},  {"tasks", {"123", "fig7"}},
      {"downtimes", {"0,30", "downtime"}}, {"trials", {"500", "robustness"}},
      {"quick", {"1", "fig3"}},
  };
  const std::set<std::string> every_builder = {"stride", "seed", "weight_cv", "eval_math"};
  // Records are rendered, never computed: plans only, no evaluator.
  const std::string result_part =
      "\"linearization\":\"DF\",\"best_budget\":0,\"expected_makespan\":1,\"ratio\":1}\n";
  const std::string dir = ::testing::TempDir() + "/fpsched_option_provenance_test";
  std::filesystem::create_directories(dir);
  const engine::FigureOptions defaults;
  const auto check = [&](const std::string& name, const std::string& value,
                         const engine::Experiment& experiment, bool every_position) {
    const std::string where = name + "=" + value + " on " + experiment.name;
    const engine::FigureOptions options = engine::read_figure_options({{name, value}});
    const auto base = engine::flatten_plan(experiment.build(defaults));
    const auto plan = engine::flatten_plan(experiment.build(options));
    const auto head = [&](const engine::PlannedScenario& planned) {
      return engine::record_json_prefix(experiment.name, planned.panel) +
             engine::record_spec_json(planned.spec);
    };

    std::size_t keys_moved = 0;
    std::size_t heads_moved = 0;
    std::string records;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      records += head(plan[i]) + result_part;
      if (i >= base.size()) continue;
      keys_moved += ResultCacheKey::of(plan[i].spec).canonical !=
                    ResultCacheKey::of(base[i].spec).canonical;
      heads_moved += head(plan[i]) != head(base[i]);
    }
    if (every_position) {
      EXPECT_EQ(plan.size(), base.size()) << where;
      EXPECT_EQ(keys_moved, plan.size()) << where << " leaves cache keys as they were";
      EXPECT_EQ(heads_moved, plan.size()) << where << " leaves records' spec parts as they were";
    } else {
      EXPECT_TRUE(plan.size() != base.size() || keys_moved > 0) << where
                                                                << " changes no cache key";
      EXPECT_TRUE(plan.size() != base.size() || heads_moved > 0)
          << where << " changes no record's spec part";
    }

    const std::string path = dir + "/" + name + "-" + experiment.name + ".ndjson";
    std::ofstream(path, std::ios::binary) << records;
    std::ostringstream merged;
    EXPECT_THROW(merge_ndjson_shards(experiment, defaults, {path}, merged, {}), InvalidArgument)
        << "shards made with " << where << " merge under the defaults";
    std::ostringstream out;
    const MergeReport report =
        merge_ndjson_shards(experiment, options, {path}, out, {.require_complete = true});
    EXPECT_TRUE(report.complete()) << where;
    EXPECT_EQ(out.str(), records) << where;
  };
  for (const engine::FigureOption& row : engine::figure_option_table()) {
    const std::string name(row.name);
    ASSERT_TRUE(changed.contains(name)) << "no non-default value for option " << name;
    const auto& [value, experiment_name] = changed.at(name);
    const engine::ExperimentRegistry& registry = engine::ExperimentRegistry::global();
    if (every_builder.contains(name)) {
      for (const engine::Experiment* experiment : registry.experiments()) {
        check(name, value, *experiment, /*every_position=*/true);
      }
    } else {
      check(name, value, registry.find(experiment_name), /*every_position=*/false);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fpsched::service
