// Tests for the fault inter-arrival distributions and the Weibull
// robustness extension of the simulator.
#include "sim/fault_distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "sim/trial_runner.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

TEST(FaultDistribution, ExponentialMeanAndSampling) {
  const FaultDistribution dist = FaultDistribution::exponential(0.01);
  EXPECT_DOUBLE_EQ(dist.mean(), 100.0);
  EXPECT_TRUE(dist.is_exponential());
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.push(dist.sample_gap(rng));
  EXPECT_NEAR(stats.mean(), 100.0, 2.0);
}

TEST(FaultDistribution, WeibullFromMtbfHitsTheRequestedMean) {
  for (const double shape : {0.5, 0.7, 1.0, 1.5, 3.0}) {
    const FaultDistribution dist = FaultDistribution::weibull_from_mtbf(shape, 250.0);
    EXPECT_NEAR(dist.mean(), 250.0, 1e-9) << "shape " << shape;
    Rng rng(7);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) stats.push(dist.sample_gap(rng));
    EXPECT_NEAR(stats.mean(), 250.0, 0.02 * 250.0) << "shape " << shape;
  }
}

TEST(FaultDistribution, WeibullShapeOneIsExponential) {
  // shape = 1 Weibull == exponential with rate 1/scale: compare tails.
  const FaultDistribution weibull = FaultDistribution::weibull(1.0, 100.0);
  Rng rng(5);
  int beyond = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i)
    if (weibull.sample_gap(rng) > 100.0) ++beyond;
  EXPECT_NEAR(static_cast<double>(beyond) / draws, std::exp(-1.0), 0.01);
}

TEST(FaultDistribution, SmallShapeIsBursty) {
  // shape < 1: higher variance than exponential at the same mean.
  const FaultDistribution bursty = FaultDistribution::weibull_from_mtbf(0.5, 100.0);
  const FaultDistribution expo = FaultDistribution::exponential(0.01);
  Rng rng(3);
  RunningStats b;
  RunningStats e;
  for (int i = 0; i < 100000; ++i) {
    b.push(bursty.sample_gap(rng));
    e.push(expo.sample_gap(rng));
  }
  EXPECT_GT(b.stddev(), 1.5 * e.stddev());
}

TEST(FaultDistribution, Validation) {
  EXPECT_THROW(FaultDistribution::exponential(0.0), InvalidArgument);
  EXPECT_THROW(FaultDistribution::weibull(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(FaultDistribution::weibull_from_mtbf(1.0, -5.0), InvalidArgument);
}

TEST(WeibullSimulation, ExponentialInjectionMatchesTheAnalyticModel) {
  // Injecting an explicit exponential distribution must agree with the
  // evaluator exactly like the built-in path does.
  TaskGraph graph = make_paper_figure1(20.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const FailureModel model(0.004, 1.0);
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  const double analytic = ScheduleEvaluator(graph, model).evaluate(schedule).expected_makespan;
  const FaultSimulator sim(graph, model, schedule);
  const MonteCarloSummary mc = run_trials_with_distribution(
      sim, FaultDistribution::exponential(model.lambda()), {.trials = 40000, .seed = 2});
  EXPECT_TRUE(mc.consistent_with(analytic, 3.0))
      << "analytic=" << analytic << " mc=" << mc.mean_makespan() << " +/- " << mc.ci95();
}

TEST(WeibullSimulation, SameMtbfDifferentShapeChangesTheMakespan) {
  // The whole point of the robustness probe: at equal MTBF, non-memoryless
  // failures give a different expected makespan than exponential ones.
  TaskGraph graph = make_uniform_chain(8, 60.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const FailureModel model(0.005, 0.0);
  Schedule schedule = testing::topo_schedule(graph);
  for (VertexId v = 1; v < graph.task_count(); v += 2) schedule.checkpointed[v] = 1;
  const FaultSimulator sim(graph, model, schedule);

  const MonteCarloSummary expo = run_trials_with_distribution(
      sim, FaultDistribution::exponential(0.005), {.trials = 30000, .seed = 5});
  const MonteCarloSummary bursty = run_trials_with_distribution(
      sim, FaultDistribution::weibull_from_mtbf(0.5, 200.0), {.trials = 30000, .seed = 5});
  // Same MTBF by construction; different distribution of makespans.
  const double gap = std::fabs(expo.mean_makespan() - bursty.mean_makespan());
  EXPECT_GT(gap, 3.0 * (expo.ci95() + bursty.ci95()));
}

TEST(WeibullSimulation, FailureCountsScaleWithMtbf) {
  TaskGraph graph = make_uniform_chain(6, 50.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const FailureModel model(1e-3, 0.0);
  Schedule schedule = testing::topo_schedule(graph);
  for (VertexId v = 0; v < graph.task_count(); ++v) schedule.checkpointed[v] = 1;
  const FaultSimulator sim(graph, model, schedule);
  const MonteCarloSummary rare = run_trials_with_distribution(
      sim, FaultDistribution::weibull_from_mtbf(1.5, 5000.0), {.trials = 5000, .seed = 9});
  const MonteCarloSummary frequent = run_trials_with_distribution(
      sim, FaultDistribution::weibull_from_mtbf(1.5, 500.0), {.trials = 5000, .seed = 9});
  EXPECT_LT(rare.failures.mean(), frequent.failures.mean());
  EXPECT_LT(rare.mean_makespan(), frequent.mean_makespan());
}

}  // namespace
}  // namespace fpsched
