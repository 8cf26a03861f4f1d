// Engine equivalence and determinism suite.
//
// The refactor contract: an engine-driven grid must produce numerically
// identical ratios to direct serial run_heuristic calls, at 1 thread and
// at >= 4 threads, and two engine runs with different thread counts must
// agree bit for bit. The serial reference below is the pre-engine bench
// path (generate instance with seed + size, linearize, sweep, evaluate).
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/scenario.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"

namespace fpsched::engine {
namespace {

/// The pre-engine serial instance path: seed + size, cost model applied.
TaskGraph serial_instance(WorkflowKind kind, std::size_t size, const ScenarioGrid& grid) {
  GeneratorConfig config;
  config.task_count = size;
  config.seed = grid.base.workflow_seed + size;
  config.weight_cv = grid.base.weight_cv;
  config.cost_model = grid.base.cost_model;
  return generate_workflow(kind, config);
}

/// The pre-engine serial ratio path (bench_common::heuristic_ratio).
double serial_ratio(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                    std::size_t stride) {
  HeuristicOptions options;
  options.stride = stride;
  return run_heuristic(evaluator, spec, options).evaluation.ratio;
}

/// The pre-engine serial best-linearization path
/// (bench_common::best_linearization_ratio).
double serial_best_lin_ratio(const ScheduleEvaluator& evaluator, CkptStrategy strategy,
                             std::size_t stride) {
  if (!is_budgeted(strategy)) {
    return serial_ratio(evaluator, {LinearizeMethod::depth_first, strategy}, stride);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const LinearizeMethod lin : all_linearize_methods()) {
    best = std::min(best, serial_ratio(evaluator, {lin, strategy}, stride));
  }
  return best;
}

/// A small Figure-2 grid: fixed BF/DF/RF x CkptW/CkptC series.
ScenarioGrid small_fig2_grid() {
  ScenarioGrid grid;
  grid.base.workflow = WorkflowKind::cybershake;
  grid.base.model = FailureModel(1e-3);
  grid.base.cost_model = CostModel::proportional(0.1);
  grid.base.stride = 8;
  grid.xs = {50, 80};
  for (const LinearizeMethod lin : all_linearize_methods()) {
    for (const CkptStrategy strategy : {CkptStrategy::by_weight, CkptStrategy::by_cost}) {
      grid.policies.push_back(ScenarioPolicy::fixed({lin, strategy}));
    }
  }
  return grid;
}

/// A small Figure-3 grid: every strategy at its best linearization.
ScenarioGrid small_fig3_grid() {
  ScenarioGrid grid;
  grid.base.workflow = WorkflowKind::montage;
  grid.base.model = FailureModel(1e-3);
  grid.base.cost_model = CostModel::proportional(0.1);
  grid.base.stride = 8;
  grid.xs = {60};
  for (const CkptStrategy strategy : all_ckpt_strategies()) {
    grid.policies.push_back(ScenarioPolicy::best_lin(strategy));
  }
  return grid;
}

TEST(ScenarioGridTest, EnumerateIsTheDeclaredCrossProduct) {
  const ScenarioGrid grid = small_fig2_grid();
  const std::vector<ScenarioSpec> specs = grid.enumerate();
  ASSERT_EQ(specs.size(), grid.scenario_count());
  ASSERT_EQ(specs.size(), 2u * 6u);
  // Order: point-major, policy-minor; scenario_index = flat position.
  EXPECT_EQ(specs[0].task_count, 50u);
  EXPECT_EQ(specs[6].task_count, 80u);
  EXPECT_EQ(specs[3].policy.name(), "BF-CkptC");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].scenario_index, i);
    EXPECT_EQ(specs[i].stride, 8u);
    EXPECT_DOUBLE_EQ(specs[i].model.lambda(), 1e-3);
  }
}

TEST(ScenarioGridTest, MalformedGridsAreRejected) {
  ScenarioGrid grid = small_fig2_grid();
  grid.base.stride = 0;  // would loop forever on the budget grid
  EXPECT_THROW(grid.enumerate(), Error);

  ScenarioGrid no_policies = small_fig2_grid();
  no_policies.policies.clear();
  EXPECT_THROW(no_policies.enumerate(), Error);

  // An empty axis would be a panel with no x value.
  ScenarioGrid no_points = small_fig2_grid();
  no_points.axis = GridAxis::lambda;
  no_points.xs.clear();
  EXPECT_THROW(no_points.enumerate(), Error);

  // A task-count point must name a task count exactly.
  for (const double bad : {0.0, 50.5, -50.0, 0x1p53 + 2.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioGrid sizes = small_fig2_grid();
    sizes.xs = {50, bad};
    EXPECT_THROW(sizes.enumerate(), Error) << bad;
  }
}

TEST(ScenarioGridTest, EachAxisSetsItsOwnSpecField) {
  ScenarioGrid grid = small_fig3_grid();
  grid.base.task_count = 70;
  grid.base.model = FailureModel(2e-3, 30.0);
  const std::size_t policies = grid.policies.size();

  grid.xs = {50, 60};
  std::vector<ScenarioSpec> specs = grid.enumerate();
  ASSERT_EQ(specs.size(), 2 * policies);
  EXPECT_EQ(specs[0].task_count, 50u);
  EXPECT_EQ(specs[policies].task_count, 60u);
  EXPECT_DOUBLE_EQ(specs[policies].model.lambda(), 2e-3);
  EXPECT_DOUBLE_EQ(specs[policies].model.downtime(), 30.0);

  grid.axis = GridAxis::lambda;
  grid.xs = {1e-4, 5e-4};
  specs = grid.enumerate();
  EXPECT_EQ(specs[policies].task_count, 70u);
  EXPECT_DOUBLE_EQ(specs[policies].model.lambda(), 5e-4);
  EXPECT_DOUBLE_EQ(specs[policies].model.downtime(), 30.0);

  grid.axis = GridAxis::downtime;
  grid.xs = {0.0, 120.0};
  specs = grid.enumerate();
  ASSERT_EQ(specs.size(), grid.scenario_count());
  // Nesting order: downtime outer, policy inner.
  EXPECT_DOUBLE_EQ(specs[0].model.downtime(), 0.0);
  EXPECT_DOUBLE_EQ(specs[policies].model.downtime(), 120.0);
  EXPECT_DOUBLE_EQ(specs[policies].model.lambda(), 2e-3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].scenario_index, i);
    EXPECT_EQ(specs[i].policy.name(), grid.policies[i % policies].name());
    EXPECT_TRUE(specs[i].cost_model == CostModel::proportional(0.1));
  }
}

TEST(ExperimentEngineTest, Fig2GridMatchesSerialRatiosAtOneAndManyThreads) {
  const ScenarioGrid grid = small_fig2_grid();
  const std::vector<ScenarioSpec> specs = grid.enumerate();

  // Direct serial reference, one evaluator per size as the benches did it.
  std::vector<double> expected;
  for (const double size : grid.xs) {
    const TaskGraph graph =
        serial_instance(WorkflowKind::cybershake, static_cast<std::size_t>(size), grid);
    const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
    for (const ScenarioPolicy& policy : grid.policies) {
      expected.push_back(serial_ratio(evaluator, policy.heuristic, grid.base.stride));
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ExperimentEngine engine({.threads = threads});
    const std::vector<ScenarioResult> results = engine.run(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      // Bit-for-bit: the engine runs the same arithmetic in the same order.
      EXPECT_EQ(results[i].ratio(), expected[i])
          << "threads=" << threads << " scenario=" << specs[i].label();
    }
  }
}

TEST(ExperimentEngineTest, Fig3GridMatchesSerialBestLinearizationRatios) {
  const ScenarioGrid grid = small_fig3_grid();
  const std::vector<ScenarioSpec> specs = grid.enumerate();

  const TaskGraph graph = serial_instance(WorkflowKind::montage, 60, grid);
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
  std::vector<double> expected;
  for (const ScenarioPolicy& policy : grid.policies) {
    expected.push_back(serial_best_lin_ratio(evaluator, policy.strategy, grid.base.stride));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ExperimentEngine engine({.threads = threads});
    const std::vector<ScenarioResult> results = engine.run(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].ratio(), expected[i]) << specs[i].label();
    }
  }
}

TEST(ExperimentEngineTest, ThreadCountDoesNotChangeAnyBit) {
  ScenarioGrid grid = small_fig3_grid();
  grid.xs = {50, 70};
  const std::vector<ScenarioSpec> specs = grid.enumerate();

  const ExperimentEngine serial({.threads = 1});
  const ExperimentEngine sharded({.threads = 5});
  EXPECT_EQ(serial.thread_count(), 1u);
  EXPECT_EQ(sharded.thread_count(), 5u);

  const std::vector<ScenarioResult> a = serial.run(specs);
  const std::vector<ScenarioResult> b = sharded.run(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].evaluation.expected_makespan, b[i].evaluation.expected_makespan);
    EXPECT_EQ(a[i].evaluation.ratio, b[i].evaluation.ratio);
    EXPECT_EQ(a[i].evaluation.fault_free_time, b[i].evaluation.fault_free_time);
    EXPECT_EQ(a[i].evaluation.checkpoint_count, b[i].evaluation.checkpoint_count);
    EXPECT_EQ(a[i].linearization, b[i].linearization);
    EXPECT_EQ(a[i].best_budget, b[i].best_budget);
  }
}

TEST(ExperimentEngineTest, ResultCallbackDeliversEveryResultInInputOrder) {
  ScenarioGrid grid = small_fig3_grid();
  grid.xs = {50, 70};
  const std::vector<ScenarioSpec> specs = grid.enumerate();
  for (const std::size_t threads : {1u, 4u}) {
    const ExperimentEngine engine({.threads = threads});
    std::vector<double> streamed;  // ratio per delivery, in delivery order
    const std::vector<ScenarioResult> results =
        engine.run(specs, [&](std::size_t index, const ScenarioResult& result) {
          // Strictly ordered: delivery i carries input index i, even
          // when workers finish out of order.
          EXPECT_EQ(index, streamed.size());
          EXPECT_EQ(result.spec.scenario_index, specs[index].scenario_index);
          streamed.push_back(result.evaluation.ratio);
        });
    ASSERT_EQ(streamed.size(), results.size()) << threads << " threads";
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(streamed[i], results[i].evaluation.ratio) << threads << " threads";
    }
  }
}

TEST(ExperimentEngineTest, ForEachVisitsEveryIndexOnce) {
  const ExperimentEngine engine({.threads = 3});
  std::vector<int> visits(100, 0);
  engine.for_each(visits.size(),
                  [&](std::size_t i, EvaluatorWorkspace&) { visits[i] += 1; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(InstanceKeyTest, ExcludesFailureCostModelAndPolicyFields) {
  const ScenarioGrid grid = small_fig2_grid();
  ScenarioSpec spec = grid.enumerate().front();
  const InstanceKey key = InstanceKey::of(spec);

  // Fields that do NOT change the instance: failure model, cost model,
  // policy, stride, grid position.
  ScenarioSpec same = spec;
  same.model = FailureModel(9e-2, 3600.0);
  same.cost_model = CostModel::constant(7.0);
  same.policy = ScenarioPolicy::best_lin(CkptStrategy::periodic);
  same.stride = 17;
  same.scenario_index = 999;
  EXPECT_TRUE(InstanceKey::of(same) == key);

  // Fields that DO change the generated graph or the linearizations.
  ScenarioSpec other = spec;
  other.workflow = WorkflowKind::genome;
  EXPECT_FALSE(InstanceKey::of(other) == key);
  other = spec;
  other.task_count += 10;
  EXPECT_FALSE(InstanceKey::of(other) == key);
  other = spec;
  other.workflow_seed += 1;
  EXPECT_FALSE(InstanceKey::of(other) == key);
  other = spec;
  other.weight_cv = 0.5;
  EXPECT_FALSE(InstanceKey::of(other) == key);
  other = spec;
  other.linearize.seed += 1;
  EXPECT_FALSE(InstanceKey::of(other) == key);
  other = spec;
  other.linearize.outweight = OutweightMode::descendants;
  EXPECT_FALSE(InstanceKey::of(other) == key);
}

TEST(InstanceCacheTest, ReplaysGraphAndOrdersAcrossCostModels) {
  const ScenarioGrid grid = small_fig2_grid();
  ScenarioSpec spec = grid.enumerate().front();
  InstanceCache cache(spec);

  const TaskGraph direct = spec.instantiate();
  const TaskGraph& cached = cache.graph_for(spec.cost_model);
  ASSERT_EQ(cached.task_count(), direct.task_count());
  for (VertexId v = 0; v < direct.task_count(); ++v) {
    EXPECT_EQ(cached.weight(v), direct.weight(v));
    EXPECT_EQ(cached.ckpt_cost(v), direct.ckpt_cost(v));
  }

  // Switching the cost model matches a from-scratch generation bit for bit.
  ScenarioSpec constant_spec = spec;
  constant_spec.cost_model = CostModel::constant(3.0);
  const TaskGraph direct_constant = constant_spec.instantiate();
  const TaskGraph& cached_constant = cache.graph_for(constant_spec.cost_model);
  for (VertexId v = 0; v < direct_constant.task_count(); ++v) {
    EXPECT_EQ(cached_constant.weight(v), direct_constant.weight(v));
    EXPECT_EQ(cached_constant.ckpt_cost(v), direct_constant.ckpt_cost(v));
    EXPECT_EQ(cached_constant.recovery_cost(v), direct_constant.recovery_cost(v));
  }

  // Memoized linearizations equal fresh ones (weights are cost independent).
  for (const LinearizeMethod method : all_linearize_methods()) {
    const auto fresh = linearize(direct.dag(), direct.weights(), method, spec.linearize);
    const VertexId* first_call_data = cache.order(method).data();
    EXPECT_EQ(cache.order(method), fresh) << to_string(method);
    // Memoized: a recomputation would allocate a new buffer while the old
    // one is still alive, so repeated calls must return the same storage.
    EXPECT_EQ(cache.order(method).data(), first_call_data) << to_string(method);
  }
}

/// The test-local serial reference for one best-linearization scenario:
/// spec.instantiate() -> linearize -> run_heuristic, from scratch for
/// every linearization, keeping the strictly smaller ratio in method
/// order (CkptNvr / CkptAlws use DF only).
ScenarioResult serial_best_lin_scenario(const ScenarioSpec& spec) {
  const TaskGraph graph = spec.instantiate();
  const ScheduleEvaluator evaluator(graph, spec.model);
  HeuristicOptions options;
  options.linearize = spec.linearize;
  options.stride = spec.stride;
  options.eval = spec.eval_math;
  ScenarioResult result;
  result.spec = spec;
  const CkptStrategy strategy = spec.policy.strategy;
  if (!is_budgeted(strategy)) {
    const HeuristicResult run =
        run_heuristic(evaluator, {LinearizeMethod::depth_first, strategy}, options);
    result.evaluation = run.evaluation;
    result.best_budget = run.best_budget;
    return result;
  }
  double best = std::numeric_limits<double>::infinity();
  for (const LinearizeMethod lin : all_linearize_methods()) {
    const HeuristicResult run = run_heuristic(evaluator, {lin, strategy}, options);
    if (run.evaluation.ratio < best) {
      best = run.evaluation.ratio;
      result.evaluation = run.evaluation;
      result.linearization = lin;
      result.best_budget = run.best_budget;
    }
  }
  return result;
}

TEST(ExperimentEngineTest, InstanceSharingMatchesAFromScratchSerialReference) {
  // Specs that stress sharing: several policies, lambdas, downtimes and
  // cost models all mapping onto the same two instances, from eight
  // lambda-axis grids run as one list. The engine's per-worker instance
  // memo must reproduce, bit for bit, a reference that regenerates and
  // relinearizes every scenario from scratch.
  std::vector<ScenarioSpec> specs;
  for (const std::size_t size : {50u, 60u}) {
    for (const CostModel& cost : {CostModel::proportional(0.1), CostModel::constant(2.0)}) {
      for (const double downtime : {0.0, 300.0}) {
        ScenarioGrid grid = small_fig3_grid();
        grid.base.task_count = size;
        grid.base.cost_model = cost;
        grid.base.model = FailureModel(1e-3, downtime);
        grid.axis = GridAxis::lambda;
        grid.xs = {1e-3, 5e-3};
        for (const ScenarioSpec& spec : grid.enumerate()) specs.push_back(spec);
      }
    }
  }
  std::vector<ScenarioResult> expected;
  for (const ScenarioSpec& spec : specs) expected.push_back(serial_best_lin_scenario(spec));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ExperimentEngine engine({.threads = threads});
    const std::vector<ScenarioResult> results = engine.run(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].evaluation.expected_makespan,
                expected[i].evaluation.expected_makespan)
          << "threads=" << threads << " " << specs[i].label();
      EXPECT_EQ(results[i].evaluation.ratio, expected[i].evaluation.ratio);
      EXPECT_EQ(results[i].evaluation.fault_free_time, expected[i].evaluation.fault_free_time);
      EXPECT_EQ(results[i].evaluation.checkpoint_count,
                expected[i].evaluation.checkpoint_count);
      EXPECT_EQ(results[i].linearization, expected[i].linearization);
      EXPECT_EQ(results[i].best_budget, expected[i].best_budget);
    }
  }
}

TEST(ExperimentEngineTest, CellGroupsMatchTheSerialReferenceInAnyOrderAndSharding) {
  // Scenarios that differ only in (lambda, D) run as one cell group. A
  // grid with both axes, shuffled so siblings sit apart and split into
  // three uneven shards (separate runs, so shard boundaries split
  // groups), must reproduce the from-scratch serial reference bit for bit.
  std::vector<ScenarioSpec> specs;
  for (const double downtime : {0.0, 120.0, 900.0}) {
    ScenarioGrid grid = small_fig3_grid();
    grid.base.task_count = 50;
    grid.base.model = FailureModel(1e-3, downtime);
    grid.axis = GridAxis::lambda;
    grid.xs = {1e-3, 4e-3, 2e-2};
    for (const ScenarioSpec& spec : grid.enumerate()) specs.push_back(spec);
  }
  Rng rng(17);
  rng.shuffle(specs);
  std::vector<ScenarioResult> expected;
  for (const ScenarioSpec& spec : specs) expected.push_back(serial_best_lin_scenario(spec));
  const std::size_t cuts[] = {0, specs.size() / 5, specs.size() * 3 / 5, specs.size()};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ExperimentEngine engine({.threads = threads});
    for (std::size_t shard = 0; shard < 3; ++shard) {
      const std::span<const ScenarioSpec> slice(specs.data() + cuts[shard],
                                                cuts[shard + 1] - cuts[shard]);
      const std::vector<ScenarioResult> results = engine.run(slice);
      ASSERT_EQ(results.size(), slice.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& want = expected[cuts[shard] + i];
        EXPECT_EQ(results[i].spec.scenario_index, want.spec.scenario_index);
        EXPECT_EQ(results[i].evaluation.expected_makespan, want.evaluation.expected_makespan)
            << "threads=" << threads << " " << slice[i].label()
            << " D=" << slice[i].model.downtime();
        EXPECT_EQ(results[i].evaluation.ratio, want.evaluation.ratio);
        EXPECT_EQ(results[i].evaluation.fault_free_time, want.evaluation.fault_free_time);
        EXPECT_EQ(results[i].evaluation.checkpoint_count, want.evaluation.checkpoint_count);
        EXPECT_EQ(results[i].linearization, want.linearization);
        EXPECT_EQ(results[i].best_budget, want.best_budget);
      }
    }
  }
}

TEST(ExperimentEngineTest, DowntimeSiblingsShareTheLostWorkWalk) {
  // On a 5-downtime grid each scenario has four siblings that differ only
  // in D, so one lost-work walk serves five makespans: walks must stay
  // below half the evaluator runs (they are equal when every run walks).
  ScenarioGrid grid = small_fig3_grid();
  grid.base.task_count = 60;
  grid.axis = GridAxis::downtime;
  grid.xs = {0.0, 60.0, 300.0, 900.0, 3600.0};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& runs = registry.counter("fpsched_eval_runs_total", "");
  obs::Counter& walks = registry.counter("fpsched_eval_walks_total", "");
  const std::uint64_t runs_before = runs.value();
  const std::uint64_t walks_before = walks.value();
  const ExperimentEngine engine({.threads = 2});
  EXPECT_EQ(engine.run(grid.enumerate()).size(), grid.scenario_count());
  const std::uint64_t run_delta = runs.value() - runs_before;
  const std::uint64_t walk_delta = walks.value() - walks_before;
  EXPECT_GT(walk_delta, 0u);
  EXPECT_LT(2 * walk_delta, run_delta) << walk_delta << " walks for " << run_delta << " runs";
}

TEST(ExperimentEngineTest, SimulatedRowsShareOneSearch) {
  // The robustness study's rows of one workflow differ only in how they
  // re-score the winning schedule, so they form one cell group: the
  // heuristics are searched once for all four rows (one lost-work walk
  // per four evaluator runs), and each row still equals its spec run
  // alone, under its own failure law, trial count and seed.
  using SimDistribution = ScenarioPolicy::SimDistribution;
  std::vector<ScenarioSpec> specs;
  for (const ScenarioPolicy& policy :
       {ScenarioPolicy::simulated(SimDistribution::analytic, 1.0, 200),
        ScenarioPolicy::simulated(SimDistribution::exponential, 1.0, 200),
        ScenarioPolicy::simulated(SimDistribution::weibull, 0.7, 300, 5),
        ScenarioPolicy::simulated(SimDistribution::weibull, 1.5, 200)}) {
    ScenarioSpec spec;
    spec.workflow = WorkflowKind::ligo;
    spec.task_count = 20;
    spec.model = FailureModel(paper_lambda(WorkflowKind::ligo));
    spec.stride = 4;
    spec.policy = policy;
    spec.scenario_index = specs.size();
    specs.push_back(spec);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& runs = registry.counter("fpsched_eval_runs_total", "");
  obs::Counter& walks = registry.counter("fpsched_eval_walks_total", "");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const ExperimentEngine engine({.threads = threads});
    const std::uint64_t runs_before = runs.value();
    const std::uint64_t walks_before = walks.value();
    const std::vector<ScenarioResult> results = engine.run(specs);
    const std::uint64_t run_delta = runs.value() - runs_before;
    const std::uint64_t walk_delta = walks.value() - walks_before;
    EXPECT_GT(walk_delta, 0u);
    EXPECT_EQ(4 * walk_delta, run_delta) << walk_delta << " walks for " << run_delta << " runs";
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioResult alone = engine.run(std::span(&specs[i], 1)).front();
      EXPECT_EQ(results[i].evaluation.expected_makespan, alone.evaluation.expected_makespan)
          << "threads=" << threads << " " << specs[i].label();
      EXPECT_EQ(results[i].evaluation.ratio, alone.evaluation.ratio);
      EXPECT_EQ(results[i].evaluation.checkpoint_count, alone.evaluation.checkpoint_count);
      EXPECT_EQ(results[i].linearization, alone.linearization);
      EXPECT_EQ(results[i].best_budget, alone.best_budget);
    }
    // The rows re-score one schedule under different laws.
    EXPECT_NE(results[0].evaluation.expected_makespan, results[2].evaluation.expected_makespan);
  }
}

TEST(ExperimentEngineTest, SerialEngineStartsNoThread) {
  // threads = 1 means serial: no pool, and no budget sweep fanning out
  // to the cores behind the caller's back.
  ScenarioGrid grid = small_fig3_grid();
  grid.xs = {60, 100};
  grid.base.stride = 1;
  const std::vector<ScenarioSpec> specs = grid.enumerate();
  const long before = testing::process_thread_count();
  ASSERT_GT(before, 0) << "no /proc/self/status";
  long peak = 0;
  {
    const testing::ThreadCountSampler sampler;
    const ExperimentEngine engine({.threads = 1});
    EXPECT_EQ(engine.run(specs).size(), specs.size());
    peak = sampler.peak();
  }
  EXPECT_EQ(peak, before);
}

}  // namespace
}  // namespace fpsched::engine
