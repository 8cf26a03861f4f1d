// Unit tests of the fault-injection simulator's mechanics (semantics,
// traces, determinism); statistical agreement with the analytic evaluator
// is covered by mc_cross_validation_test.cpp.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/evaluator.hpp"
#include "sim/trial_runner.hpp"
#include "support/error.hpp"
#include "test_util.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::topo_schedule;
using testing::topo_schedule_with_ckpts;

TEST(Simulator, FailureFreeRunEqualsFaultFreeTime) {
  TaskGraph graph = make_fork_join(2, 3, 10.0);
  graph.apply_cost_model(CostModel::constant(2.0));
  Schedule schedule = topo_schedule(graph);
  schedule.checkpointed[0] = 1;
  schedule.checkpointed[3] = 1;
  const FaultSimulator sim(graph, FailureModel(0.0, 0.0), schedule);
  Rng rng(1);
  const SimResult result = sim.run(rng);
  EXPECT_DOUBLE_EQ(result.makespan, graph.total_weight() + 4.0);
  EXPECT_EQ(result.failure_count, 0u);
  EXPECT_DOUBLE_EQ(result.wasted_time, 0.0);
}

TEST(Simulator, DeterministicGivenSeed) {
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  const FaultSimulator sim(graph, FailureModel(0.01, 1.0), schedule);
  Rng rng1(77);
  Rng rng2(77);
  const SimResult a = sim.run(rng1);
  const SimResult b = sim.run(rng2);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.failure_count, b.failure_count);
}

TEST(Simulator, MakespanAlwaysAtLeastFaultFree) {
  TaskGraph graph = make_layered_random({.task_count = 20, .seed = 5});
  graph.apply_cost_model(CostModel::proportional(0.1));
  Schedule schedule = topo_schedule(graph);
  for (VertexId v = 0; v < graph.task_count(); v += 2) schedule.checkpointed[v] = 1;
  double fault_free = graph.total_weight();
  for (VertexId v = 0; v < graph.task_count(); ++v)
    if (schedule.is_checkpointed(v)) fault_free += graph.ckpt_cost(v);
  const FaultSimulator sim(graph, FailureModel(0.02, 2.0), schedule);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const SimResult result = sim.run(rng);
    EXPECT_GE(result.makespan, fault_free - 1e-9);
    EXPECT_GE(result.wasted_time, -1e-9);
    if (result.failure_count == 0) {
      EXPECT_NEAR(result.makespan, fault_free, 1e-9);
    }
  }
}

TEST(Simulator, TraceAccountsForEveryTask) {
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  const FaultSimulator sim(graph, FailureModel(0.005, 1.0), schedule);
  Rng rng(123);
  const SimResult result = sim.run(rng, /*record_trace=*/true);
  ASSERT_FALSE(result.trace.empty());

  // Times are non-decreasing; every task completes exactly once (a
  // re-execution is not a completion) and the final event closes the run.
  double previous = 0.0;
  std::size_t completions = 0;
  std::size_t failures = 0;
  for (const SimEvent& event : result.trace) {
    EXPECT_GE(event.time, previous - 1e-12);
    previous = event.time;
    if (event.kind == SimEvent::Kind::task_complete) ++completions;
    if (event.kind == SimEvent::Kind::failure) ++failures;
  }
  EXPECT_EQ(completions, graph.task_count());
  EXPECT_EQ(failures, result.failure_count);
  EXPECT_NEAR(result.trace.back().time, result.makespan, 1e-9);
}

TEST(Simulator, CheckpointShieldsPredecessorsFromReexecution) {
  // Chain a -> b -> c with b checkpointed: once b's checkpoint is taken, a
  // failure during c must never re-execute a or b, only recover b.
  TaskGraph graph = make_uniform_chain(3, 50.0);
  graph.apply_cost_model(CostModel::constant(1.0));
  const Schedule schedule = topo_schedule_with_ckpts(graph, {1});
  const FaultSimulator sim(graph, FailureModel(0.01, 0.0), schedule);
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const SimResult result = sim.run(rng, /*record_trace=*/true);
    bool ckpt_done = false;
    for (const SimEvent& event : result.trace) {
      if (event.kind == SimEvent::Kind::checkpoint_done && event.task == 1) ckpt_done = true;
      if (!ckpt_done) continue;
      EXPECT_NE(event.kind, SimEvent::Kind::reexecution)
          << "task " << event.task << " re-executed after the checkpoint";
      if (event.kind == SimEvent::Kind::recovery) {
        EXPECT_EQ(event.task, 1u);
      }
    }
  }
}

TEST(Simulator, WithoutCheckpointsAFailureRestartsFromEntryTasks) {
  // Chain without checkpoints: a failure during a later task forces the
  // whole prefix to be re-executed (visible as reexecution events).
  const TaskGraph graph = make_uniform_chain(4, 25.0);
  const Schedule schedule = topo_schedule(graph);
  const FaultSimulator sim(graph, FailureModel(0.01, 0.0), schedule);
  Rng rng(7);
  bool saw_reexecution = false;
  for (int trial = 0; trial < 200 && !saw_reexecution; ++trial) {
    const SimResult result = sim.run(rng, /*record_trace=*/true);
    for (const SimEvent& event : result.trace) {
      if (event.kind == SimEvent::Kind::reexecution) {
        saw_reexecution = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_reexecution);
}

TEST(Simulator, DowntimeIsChargedPerFailure) {
  // Makespan must cover failures * downtime plus all the real work.
  const TaskGraph graph = make_uniform_chain(5, 40.0);
  const Schedule schedule = topo_schedule(graph);
  const double downtime = 500.0;
  const FaultSimulator sim(graph, FailureModel(0.01, downtime), schedule);
  Rng rng(15);
  for (int trial = 0; trial < 20; ++trial) {
    const SimResult result = sim.run(rng);
    EXPECT_GE(result.makespan,
              static_cast<double>(result.failure_count) * downtime + graph.total_weight() - 1e-9);
  }
}

TEST(Simulator, RejectsInvalidSchedule) {
  const TaskGraph graph = make_uniform_chain(3, 1.0);
  EXPECT_THROW(FaultSimulator(graph, FailureModel(0.1, 0.0), Schedule({2, 1, 0}, {0, 0, 0})),
               ScheduleError);
}

TEST(TrialRunner, IsAPureFunctionOfSimulatorTrialsAndSeed) {
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  const FaultSimulator sim(graph, FailureModel(0.005, 1.0), schedule);
  const TrialOptions options{.trials = 20000, .seed = 42};

  // Trials t = 0..trials-1, each on fork t of the seeded root, pushed in
  // order into one accumulator.
  RunningStats expected;
  const Rng root(options.seed);
  for (std::size_t t = 0; t < options.trials; ++t) {
    Rng rng = root.fork(t);
    expected.push(sim.run(rng).makespan);
  }

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expect_same_bits = [&](const RunningStats& a, const RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(bits(a.mean()), bits(b.mean()));
    EXPECT_EQ(bits(a.variance()), bits(b.variance()));
    EXPECT_EQ(bits(a.min()), bits(b.min()));
    EXPECT_EQ(bits(a.max()), bits(b.max()));
  };
  const MonteCarloSummary first = run_trials(sim, options);
  const MonteCarloSummary second = run_trials(sim, options);
  EXPECT_EQ(first.makespan.count(), options.trials);
  expect_same_bits(first.makespan, expected);
  expect_same_bits(first.makespan, second.makespan);
  expect_same_bits(first.failures, second.failures);
  expect_same_bits(first.wasted_time, second.wasted_time);
}

}  // namespace
}  // namespace fpsched
