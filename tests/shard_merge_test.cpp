// Shard-merge suite: the multi-host guarantee — validated concatenation
// of per-shard NDJSON files reproduces the unsharded stream bit for bit,
// including degenerate shardings (more shards than scenarios, empty
// shards) — and the failure modes (misordered/duplicated/missing shards,
// truncated files, option mismatches) that must fail loudly.
#include "service/shard_merge.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/result_sink.hpp"
#include "support/error.hpp"

namespace fpsched::service {
namespace {

/// A cheap one-panel experiment: 3 sizes x 2 policies = 6 scenarios.
engine::Experiment tiny_experiment() {
  return {"tinymerge", "merge test experiment", [](const engine::FigureOptions& options) {
            engine::FigurePlan plan;
            engine::ScenarioGrid grid;
            grid.workflows = {WorkflowKind::montage};
            grid.sizes = options.sizes;
            grid.seed = options.seed;
            grid.weight_cv = options.weight_cv;
            grid.lambdas = {1e-3};
            grid.stride = 16;
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
            grid.workflows = {WorkflowKind::montage};
            grid.sizes = options.sizes;
            grid.lambdas = {1e-3};
            grid.downtime = options.downtimes.front();
            grid.stride = 16;
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

}  // namespace
}  // namespace fpsched::service
