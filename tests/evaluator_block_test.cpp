// Block evaluation: schedules that share one linearization, evaluated in
// one call, must each get the very bits of their evaluation alone, and the
// budget sweeps that use blocks must walk less without counting fewer
// makespans, schedules, lanes or records.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/linearize.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

constexpr EvalMath kModes[] = {EvalMath::exact, EvalMath::fast};

/// Bit equality that counts two NaNs as agreeing.
bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// The model set of the differential: no failures, the given rate, the
/// same rate with a downtime, a failure-dominated rate (its makespans are
/// +inf) and one so small that its passes die early.
std::vector<FailureModel> model_set(double lambda) {
  return {FailureModel(0.0), FailureModel(lambda), FailureModel(lambda, 60.0),
          FailureModel(20.0), FailureModel(1e-18)};
}

/// Evaluates `flags` on `order` as consecutive blocks of each size in
/// `blocks` and expects each member's makespans to be bit-identical to
/// evaluating that schedule alone, once per model.
void expect_blocks_match_alone(const TaskGraph& graph, std::span<const FailureModel> models,
                               const std::vector<VertexId>& order,
                               const std::vector<std::vector<std::uint8_t>>& flags,
                               std::span<const std::size_t> blocks, const std::string& what) {
  const ScheduleEvaluator evaluator(graph, models[0]);
  const std::size_t model_count = models.size();
  EvaluatorWorkspace ws;
  for (const EvalMath math : kModes) {
    std::vector<double> alone(flags.size() * model_count);
    for (std::size_t b = 0; b < flags.size(); ++b) {
      for (std::size_t m = 0; m < model_count; ++m) {
        const Schedule schedule(order, flags[b]);
        alone[b * model_count + m] =
            ScheduleEvaluator(graph, models[m]).expected_makespan(schedule, ws, true, math);
      }
    }
    for (const std::size_t block : blocks) {
      for (std::size_t first = 0; first < flags.size(); first += block) {
        const std::size_t count = std::min(block, flags.size() - first);
        std::vector<double> out(count * model_count);
        const ScheduleBlock members{order, std::span(flags).subspan(first, count)};
        evaluator.expected_makespans(members, models, ws, out, true, math);
        for (std::size_t slot = 0; slot < out.size(); ++slot) {
          const double single = alone[first * model_count + slot];
          const FailureModel& model = models[slot % model_count];
          ASSERT_TRUE(same_value(single, out[slot]))
              << what << " " << to_string(math) << " block of " << block << ", member "
              << first + slot / model_count << ", lambda=" << model.lambda()
              << " D=" << model.downtime() << ": " << single << " alone vs " << out[slot]
              << " in the block";
        }
      }
    }
  }
}

/// The graphs of the differential at `n` tasks: a random layered DAG and
/// each Pegasus workflow that can have n tasks, with the paper's rate.
struct Instance {
  std::string name;
  TaskGraph graph;
  double lambda;
};

std::vector<Instance> instances(std::size_t n) {
  std::vector<Instance> out;
  TaskGraph layered = make_layered_random({.task_count = n,
                                           .layer_count = std::max<std::size_t>(1, n / 5),
                                           .edge_probability = 0.35,
                                           .mean_weight = 15.0,
                                           .weight_cv = 0.6,
                                           .seed = 11 + n});
  layered.apply_cost_model(CostModel::proportional(0.15));
  out.push_back({"layered", std::move(layered), 1e-2});
  for (const WorkflowKind kind : all_workflow_kinds()) {
    if (n < minimum_task_count(kind)) continue;
    out.push_back({to_string(kind),
                   generate_workflow(kind, {.task_count = n, .seed = 3, .weight_cv = 0.5}),
                   paper_lambda(kind)});
  }
  return out;
}

TEST(EvaluatorBlock, SweepBlocksMatchEachScheduleAlone) {
  for (const std::size_t n : {1, 2, 3, 17, 60}) {
    for (const Instance& instance : instances(n)) {
      const std::vector<FailureModel> models = model_set(instance.lambda);
      for (const LinearizeMethod method : all_linearize_methods()) {
        const std::vector<VertexId> order =
            linearize(instance.graph.dag(), instance.graph.weights_view(), method, {});
        for (const CkptStrategy strategy : all_ckpt_strategies()) {
          if (!is_budgeted(strategy)) continue;
          // The whole sweep, as run_heuristic builds it (budget 0 alone for
          // a single task).
          const CheckpointPlacer placer(instance.graph, order, strategy);
          std::vector<std::vector<std::uint8_t>> flags;
          for (std::size_t budget = n < 2 ? 0 : 1; budget < std::max<std::size_t>(n, 1);
               ++budget) {
            flags.push_back(placer.flags(budget));
          }
          const std::string what = instance.name + " n=" + std::to_string(n) + " " +
                                   to_string(method) + "-" + to_string(strategy);
          const std::size_t blocks[] = {1, 2, 3, 8, 17, flags.size()};
          expect_blocks_match_alone(instance.graph, models, order, flags, blocks, what);
        }
      }
    }
  }
}

TEST(EvaluatorBlock, ArbitraryBlocksMatchEachScheduleAlone) {
  // Members whose flags do not nest (drawn at random, so classes split and
  // merge in no particular order), repeated members and the all/none
  // extremes, in one block and in pieces.
  for (const std::size_t n : {1, 2, 3, 17, 60}) {
    for (const Instance& instance : instances(n)) {
      Rng rng(97 + n);
      const std::vector<VertexId> order = linearize(
          instance.graph.dag(), instance.graph.weights_view(), LinearizeMethod::random_first,
          {.seed = rng()});
      std::vector<std::vector<std::uint8_t>> flags;
      for (int member = 0; member < 9; ++member) {
        std::vector<std::uint8_t> flag(n);
        const double density = rng.uniform(0.0, 1.0);
        for (std::uint8_t& f : flag) f = rng.bernoulli(density) ? 1 : 0;
        flags.push_back(std::move(flag));
      }
      flags.push_back(flags[3]);
      flags.insert(flags.begin() + 1, flags[0]);
      flags.push_back(std::vector<std::uint8_t>(n, 1));
      flags.push_back(std::vector<std::uint8_t>(n, 0));
      flags.push_back(flags[5]);
      const std::string what = instance.name + " n=" + std::to_string(n) + " random flags";
      const std::size_t blocks[] = {3, flags.size()};
      expect_blocks_match_alone(instance.graph, model_set(instance.lambda), order, flags, blocks,
                                what);
    }
  }
}

TEST(EvaluatorBlock, BlockRejectsBadInputs) {
  const TaskGraph graph = generate_workflow(WorkflowKind::ligo, {.task_count = 20, .seed = 1});
  const ScheduleEvaluator evaluator(graph, FailureModel(1e-3));
  EvaluatorWorkspace ws;
  const std::vector<VertexId> order = linearize(graph.dag(), graph.weights_view(),
                                                LinearizeMethod::depth_first, {});
  const std::vector<std::vector<std::uint8_t>> flags = {std::vector<std::uint8_t>(20, 0),
                                                        std::vector<std::uint8_t>(19, 0)};
  const FailureModel model(1e-3);
  std::vector<double> out(2);
  EXPECT_THROW(evaluator.expected_makespans(ScheduleBlock{order, flags}, {&model, 1}, ws, out),
               ScheduleError);
  std::vector<double> short_out(1);
  EXPECT_THROW(evaluator.expected_makespans(ScheduleBlock{order, std::span(flags).first(1)},
                                            {&model, 1}, ws, std::span(short_out).first(0)),
               Error);
}

TEST(EvaluatorBlock, BlockSizeKeepsMemberStateBounded) {
  const FailureModel one[] = {FailureModel(1e-3)};
  const FailureModel seven_rates[] = {FailureModel(1e-4), FailureModel(2.5e-4),
                                      FailureModel(3.8e-4), FailureModel(5.2e-4),
                                      FailureModel(6.6e-4), FailureModel(8e-4),
                                      FailureModel(9.3e-4)};
  const FailureModel downtimes[] = {FailureModel(1e-3), FailureModel(1e-3, 60.0),
                                    FailureModel(1e-3, 300.0), FailureModel(0.0)};
  EXPECT_EQ(ScheduleEvaluator::block_size(700, one), 8u);
  EXPECT_EQ(ScheduleEvaluator::block_size(200, seven_rates), 4u);
  EXPECT_EQ(ScheduleEvaluator::block_size(200, downtimes), 16u);  // one lane
  EXPECT_EQ(ScheduleEvaluator::block_size(60, one), 16u);
  EXPECT_EQ(ScheduleEvaluator::block_size(100000, one), 1u);
  const FailureModel none[] = {FailureModel(0.0)};
  EXPECT_EQ(ScheduleEvaluator::block_size(700, none), 16u);
}

TEST(EvaluatorBlock, SweepWalksLessThanItsCandidatesAlone) {
  // A Montage CkptW sweep through run_heuristic against the sum of its
  // candidates' calls alone (plus the winner's evaluation): the same
  // makespans, schedules, lanes and records, but fewer lost-work DFS runs,
  // because the budgets of a block share each pass's walk below their
  // first flag difference.
  const TaskGraph graph = generate_workflow(WorkflowKind::montage,
                                           {.task_count = 60, .seed = 2015, .weight_cv = 0.5});
  const FailureModel model(paper_lambda(WorkflowKind::montage));
  const ScheduleEvaluator evaluator(graph, model);
  const HeuristicSpec spec{LinearizeMethod::depth_first, CkptStrategy::by_weight};
  const std::vector<VertexId> order =
      linearize(graph.dag(), graph.weights_view(), spec.linearization, {});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const char* const names[] = {"fpsched_eval_runs_total", "fpsched_eval_walks_total",
                               "fpsched_eval_lanes_total", "fpsched_eval_records_total",
                               "fpsched_eval_dfs_records_total"};
  const auto snapshot = [&] {
    std::vector<std::uint64_t> values;
    for (const char* name : names) values.push_back(registry.counter(name, "").value());
    return values;
  };
  const auto delta = [](const std::vector<std::uint64_t>& before,
                        const std::vector<std::uint64_t>& after) {
    std::vector<std::uint64_t> out(before.size());
    for (std::size_t c = 0; c < before.size(); ++c) out[c] = after[c] - before[c];
    return out;
  };

  for (const EvalMath math : kModes) {
    EvaluatorWorkspace ws;
    const std::vector<std::uint64_t> sweep_before = snapshot();
    const HeuristicResult result =
        run_heuristic(evaluator, spec, order, {.stride = 1, .workspace = &ws, .eval = math});
    const std::vector<std::uint64_t> sweep = delta(sweep_before, snapshot());

    const std::vector<std::uint64_t> alone_before = snapshot();
    for (const SweepPoint& point : result.curve) {
      const Schedule schedule =
          make_heuristic_schedule(graph, order, spec.checkpointing, point.budget);
      EXPECT_EQ(evaluator.expected_makespan(schedule, ws, true, math), point.expected_makespan);
    }
    evaluator.evaluate(make_heuristic_schedule(graph, order, spec.checkpointing,
                                               result.best_budget),
                       ws, math);
    const std::vector<std::uint64_t> alone = delta(alone_before, snapshot());

    for (std::size_t c = 0; c + 1 < std::size(names); ++c) {
      EXPECT_EQ(sweep[c], alone[c]) << names[c] << " " << to_string(math);
    }
    EXPECT_EQ(sweep[0], result.curve.size() + 1) << to_string(math);
    EXPECT_LT(sweep[4], alone[4]) << "dfs records " << to_string(math);
    EXPECT_GT(sweep[4], 0u);
  }
}

}  // namespace
}  // namespace fpsched
