// ResultCache suite: cache-key sensitivity to every ScenarioSpec field,
// in-memory round trips of shared bodies, and the on-disk segment
// store — restart restore, one segment per opening, and torn-write tolerance.
#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/scenario.hpp"

namespace fpsched::service {
namespace {

/// A fully-populated baseline spec; the key tests perturb one field at a
/// time.
engine::ScenarioSpec base_spec() {
  engine::ScenarioSpec spec;
  spec.workflow = WorkflowKind::montage;
  spec.task_count = 50;
  spec.model = FailureModel(1e-3, 60.0);
  spec.cost_model = CostModel::proportional(0.1);
  spec.policy = engine::ScenarioPolicy::fixed(
      {LinearizeMethod::depth_first, CkptStrategy::by_weight});
  spec.workflow_seed = 42;
  spec.weight_cv = 0.2;
  spec.stride = 16;
  spec.scenario_index = 3;
  return spec;
}

RecordBody body(std::string text) { return std::make_shared<const std::string>(std::move(text)); }

/// RAII temp directory under the system temp root.
class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ResultCacheKeyTest, EveryFieldChangesTheKey) {
  const ResultCacheKey base = ResultCacheKey::of(base_spec());
  // One perturbation per ScenarioSpec field (policy sub-fields included).
  using Mutator = void (*)(engine::ScenarioSpec&);
  const Mutator mutators[] = {
      [](engine::ScenarioSpec& s) { s.workflow = WorkflowKind::ligo; },
      [](engine::ScenarioSpec& s) { s.task_count = 51; },
      [](engine::ScenarioSpec& s) { s.model = FailureModel(2e-3, 60.0); },
      [](engine::ScenarioSpec& s) { s.model = FailureModel(1e-3, 61.0); },
      [](engine::ScenarioSpec& s) { s.cost_model = CostModel::constant(0.1); },
      [](engine::ScenarioSpec& s) { s.cost_model = CostModel::proportional(0.2); },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::best_lin(CkptStrategy::by_weight);
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::fixed(
            {LinearizeMethod::breadth_first, CkptStrategy::by_weight});
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::fixed(
            {LinearizeMethod::depth_first, CkptStrategy::by_cost});
      },
      [](engine::ScenarioSpec& s) {
        s.policy = engine::ScenarioPolicy::simulated(
            engine::ScenarioPolicy::SimDistribution::weibull, 0.7, 100, 9);
      },
      [](engine::ScenarioSpec& s) { s.workflow_seed = 43; },
      [](engine::ScenarioSpec& s) { s.weight_cv = 0.3; },
      [](engine::ScenarioSpec& s) { s.stride = 8; },
      [](engine::ScenarioSpec& s) { s.linearize.outweight = OutweightMode::descendants; },
      [](engine::ScenarioSpec& s) { s.linearize.seed = 7; },
      [](engine::ScenarioSpec& s) { s.scenario_index = 4; },
      // The evaluator algorithm: fast and exact may produce different
      // record bytes for the same scenario.
      [](engine::ScenarioSpec& s) { s.eval_math = EvalMath::fast; },
  };

  std::set<std::string> canonicals = {base.canonical};
  for (const Mutator mutate : mutators) {
    engine::ScenarioSpec spec = base_spec();
    mutate(spec);
    const ResultCacheKey key = ResultCacheKey::of(spec);
    EXPECT_TRUE(canonicals.insert(key.canonical).second)
        << "canonical collision: " << key.canonical;
    EXPECT_NE(key.hash, base.hash) << key.canonical;
  }
}

TEST(ResultCacheKeyTest, ExactKeysAreUnchangedAndFastKeysHaveTheirOwnSpelling) {
  // Keys keep the spelling they had before the evaluator algorithm was a
  // spec field, so existing disk caches stay valid.
  const std::string fields =
      "spec/1 wf=0 n=50 lambda=0.001 downtime=60 cost_kind=0 cost_param=0.10000000000000001 "
      "policy=0 lin=0 ckpt=2 strategy=2 sim_dist=0 sim_shape=1 sim_trials=20000 sim_seed=31 "
      "seed=42 cv=0.20000000000000001 stride=16 outweight=0 lin_seed=42 index=3";
  const ResultCacheKey exact = ResultCacheKey::of(base_spec());
  EXPECT_EQ(exact.canonical, fields + " math=exact");
  EXPECT_EQ(exact.canonical, engine::canonical_spec_string(base_spec()));
  EXPECT_EQ(exact.hash, engine::fnv1a64(exact.canonical));
  // Fast keys are spelled so that no earlier build's fast entry —
  // `math=fast` (polynomial kernels), `math=fast kernel=<clone>` (their
  // per-CPU clones) or `math=fast-recurrence` (records without the
  // eval_math field) — can match and serve bytes this build does not make.
  engine::ScenarioSpec fast_spec = base_spec();
  fast_spec.eval_math = EvalMath::fast;
  const ResultCacheKey fast = ResultCacheKey::of(fast_spec);
  EXPECT_EQ(fast.canonical, fields + " math=fast-recurrence/2");
  for (const char* old : {" math=fast", " math=fast kernel=default", " math=fast kernel=x86-64-v3",
                          " math=fast-recurrence"}) {
    EXPECT_NE(fast.canonical, fields + old);
    EXPECT_NE(fast.hash, engine::fnv1a64(fields + old)) << old;
  }
}

TEST(ResultCacheTest, InMemoryRoundTripCountsHitsAndMisses) {
  ResultCache cache;
  const ResultCacheKey key = ResultCacheKey::of(base_spec());
  EXPECT_FALSE(cache.lookup(key));
  const RecordBody stored = body("payload-bytes");
  cache.insert(key, stored);
  const RecordBody hit = cache.lookup(key);
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_EQ(hit, stored);  // the stored body itself, not a copy
  EXPECT_EQ(cache.size(), 1u);
  // First write wins; entries are immutable.
  cache.insert(key, body("other-bytes"));
  EXPECT_EQ(*cache.lookup(key), "payload-bytes");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, SegmentStoreSurvivesReopen) {
  const TempDir dir("fpsched_result_cache_reopen_test");
  std::vector<ResultCacheKey> keys;
  for (std::size_t tasks : {50, 60, 70}) {
    auto spec = base_spec();
    spec.task_count = tasks;
    keys.push_back(ResultCacheKey::of(spec));
  }
  {
    ResultCache cache({.directory = dir.path().string()});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.insert(keys[i], body("payload-" + std::to_string(i)));
    }
    EXPECT_EQ(cache.restored(), 0u);
  }
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 3u);
  EXPECT_EQ(reopened.size(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto hit = reopened.lookup(keys[i]);
    ASSERT_TRUE(hit) << keys[i].canonical;
    EXPECT_EQ(*hit, "payload-" + std::to_string(i));
  }
}

TEST(ResultCacheTest, EachOpeningAppendsItsOwnSegmentAndRestartLoadsAll) {
  const TempDir dir("fpsched_result_cache_segments_test");
  std::vector<ResultCacheKey> keys;
  for (std::size_t tasks : {50, 60, 70}) {
    // One open / insert / close cycle per entry: a cache appends to a
    // segment of its own, after those that earlier caches left.
    auto spec = base_spec();
    spec.task_count = tasks;
    keys.push_back(ResultCacheKey::of(spec));
    ResultCache cache({.directory = dir.path().string()});
    cache.insert(keys.back(), body(std::to_string(tasks)));
  }
  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".ndjson") ++segments;
  }
  EXPECT_EQ(segments, 3u);
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 3u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto hit = reopened.lookup(keys[i]);
    ASSERT_TRUE(hit) << keys[i].canonical;
    EXPECT_EQ(*hit, std::to_string(50 + 10 * i));
  }
}

TEST(ResultCacheTest, SkipsTornAndCorruptSegmentLines) {
  const TempDir dir("fpsched_result_cache_corrupt_test");
  const ResultCacheKey key = ResultCacheKey::of(base_spec());
  {
    ResultCache cache({.directory = dir.path().string()});
    cache.insert(key, body("good-payload"));
  }
  {
    // Simulate a crash mid-append plus stray garbage: neither may poison
    // the good entry or fail the restart load.
    std::ofstream segment(dir.path() / "segment-000001.ndjson", std::ios::app);
    segment << "not json at all\n";
    segment << R"({"key":"zzzz","spec":"x","payload":"y"})" << "\n";  // bad hex
    segment << R"({"key":"0000000000000001","spec":"mismatch","payload":"y"})"
            << "\n";                                  // hash != fnv1a64(spec)
    segment << R"({"key":"0000000000000002","spec":)";  // torn tail write
  }
  ResultCache reopened({.directory = dir.path().string()});
  EXPECT_EQ(reopened.restored(), 1u);
  const auto hit = reopened.lookup(key);
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "good-payload");
}

}  // namespace
}  // namespace fpsched::service
