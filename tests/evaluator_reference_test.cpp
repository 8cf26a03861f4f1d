// Differential tests: the optimized evaluator, under both EvalMath
// algorithms, must agree (up to floating-point noise) with the literal
// Algorithm-1 transcription on randomized DAGs, schedules, and checkpoint
// patterns, from benign failure rates to failure-dominated ones.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/evaluator_naive.hpp"
#include "dag/linearize.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workflows/generator.hpp"
#include "workflows/synthetic.hpp"

namespace fpsched {
namespace {

using testing::build_graph;

constexpr EvalMath kModes[] = {EvalMath::exact, EvalMath::fast};

Schedule random_schedule(const TaskGraph& graph, Rng& rng, double ckpt_probability) {
  const std::vector<double> weights = graph.weights();
  Schedule schedule = make_schedule(
      linearize(graph.dag(), weights, LinearizeMethod::random_first, {.seed = rng()}));
  for (VertexId v = 0; v < graph.task_count(); ++v)
    schedule.checkpointed[v] = rng.bernoulli(ckpt_probability) ? 1 : 0;
  return schedule;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The case in a form that can be replayed: model, size and schedule.
std::string describe(const FailureModel& model, const Schedule& schedule) {
  std::ostringstream out;
  out << "lambda=" << model.lambda() << " D=" << model.downtime()
      << " n=" << schedule.order.size() << " order=";
  for (const VertexId v : schedule.order) out << v << (schedule.is_checkpointed(v) ? "*" : "") << ' ';
  return out.str();
}

/// Both algorithms against Algorithm 1: a finite value within 1e-10
/// relative, anything else the same infinity (a NaN never agrees).
void expect_evaluators_agree(const TaskGraph& graph, const FailureModel& model,
                             const Schedule& schedule) {
  const double reference = evaluate_reference(graph, model, schedule);
  const ScheduleEvaluator evaluator(graph, model);
  EvaluatorWorkspace ws;
  for (const EvalMath math : kModes) {
    const double value = evaluator.evaluate(schedule, ws, math).expected_makespan;
    const bool agree = std::isfinite(value) ? relative_difference(reference, value) <= 1e-10
                                            : value == reference;
    EXPECT_TRUE(agree) << to_string(math) << " " << value << " vs Algorithm 1 " << reference
                       << " (" << describe(model, schedule) << ")";
  }
}

/// The multi-model calls against one-model evaluators, under each
/// algorithm: expected_makespans and the multi-model evaluate must
/// reproduce, bit for bit, what an evaluator for each models[m] alone
/// computes — makespan and every per-task term. The set, in shuffled
/// order, puts next to the case's model: lambda = 0 (the closed form, no
/// lane), the same lambda with D = 60 (two models on one lane), a
/// failure-dominated lambda (its probabilities underflow where the other
/// lanes' do not), lambda = 1e-6, and two vanishing lambdas whose lanes
/// are dead (P(Z^{k+1}_k) rounds to 0) while the other lanes live: 1e-18
/// in all but a few late passes, 1e-17 in the early passes only, so its
/// lane's memo starts partway through the call. `shuffle_seed` orders
/// the set.
///
/// The workspace then evaluates the schedule with the last task's
/// checkpoint flag flipped, which must match a fresh workspace bit for
/// bit: that task's lost work L^i_k is unchanged while delta_i c_i is not,
/// so a factor memoized in the previous call must not be reused.
void expect_multi_model_matches_single(const TaskGraph& graph, const FailureModel& model,
                                       double dominated_lambda, const Schedule& schedule,
                                       std::uint64_t shuffle_seed) {
  std::vector<FailureModel> models = {model,
                                      FailureModel(0.0),
                                      FailureModel(model.lambda(), 60.0),
                                      FailureModel(dominated_lambda, model.downtime()),
                                      FailureModel(1e-6),
                                      FailureModel(1e-17),
                                      FailureModel(1e-18)};
  Rng rng(shuffle_seed);
  rng.shuffle(models);
  const ScheduleEvaluator evaluator(graph, model);
  EvaluatorWorkspace ws;
  for (const EvalMath math : kModes) {
    std::vector<double> makespans(models.size());
    evaluator.expected_makespans(schedule, models, ws, makespans, true, math);
    std::vector<Evaluation> evaluations(models.size());
    evaluator.evaluate(schedule, models, ws, evaluations, math);
    for (std::size_t m = 0; m < models.size(); ++m) {
      EvaluatorWorkspace single_ws;
      const Evaluation single =
          ScheduleEvaluator(graph, models[m]).evaluate(schedule, single_ws, math);
      const std::string what = to_string(math) + " " + describe(models[m], schedule);
      EXPECT_TRUE(same_bits(single.expected_makespan, makespans[m]))
          << what << ": " << single.expected_makespan << " vs " << makespans[m];
      EXPECT_TRUE(same_bits(single.expected_makespan, evaluations[m].expected_makespan)) << what;
      EXPECT_TRUE(same_bits(single.ratio, evaluations[m].ratio)) << what;
      ASSERT_EQ(single.per_task_expected.size(), evaluations[m].per_task_expected.size());
      for (std::size_t i = 0; i < single.per_task_expected.size(); ++i) {
        EXPECT_TRUE(same_bits(single.per_task_expected[i], evaluations[m].per_task_expected[i]))
            << what << " position " << i;
      }
    }

    if (schedule.order.empty()) continue;
    Schedule flipped = schedule;
    const VertexId last = flipped.order.back();
    flipped.checkpointed[last] = flipped.is_checkpointed(last) ? 0 : 1;
    std::vector<double> reused(models.size());
    evaluator.expected_makespans(flipped, models, ws, reused, true, math);
    std::vector<double> fresh(models.size());
    EvaluatorWorkspace fresh_ws;
    evaluator.expected_makespans(flipped, models, fresh_ws, fresh, true, math);
    for (std::size_t m = 0; m < models.size(); ++m) {
      EXPECT_TRUE(same_bits(fresh[m], reused[m]))
          << to_string(math) << " reused workspace, " << describe(models[m], flipped) << ": "
          << fresh[m] << " vs " << reused[m];
    }
  }
}

/// `count` disconnected copies of a six-task gadget. Vertex ids are
/// schedule positions; copy g holds, from position 6g: c, a and b
/// (checkpointed sources), f (isolated), i <- {a, b} and t <- c. For the
/// copy at positions 0..5, task i loses r_a in pass 2 and r_a + r_b in
/// pass 3 (its lost work changes between passes), and task t loses r_c in
/// every pass 1..4 (the same L in each lost-work record of a call).
TaskGraph make_gadgets(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(6 * count);
  for (double& weight : weights) weight = rng.uniform(5.0, 25.0);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (std::size_t g = 0; g < count; ++g) {
    const auto at = [g](VertexId offset) { return static_cast<VertexId>(6 * g + offset); };
    edges.emplace_back(at(1), at(4));  // a -> i
    edges.emplace_back(at(2), at(4));  // b -> i
    edges.emplace_back(at(0), at(5));  // c -> t
  }
  TaskGraph graph = build_graph(weights, edges);
  graph.apply_cost_model(CostModel::proportional(0.15));
  return graph;
}

/// The gadgets' schedule: identity order, c, a and b checkpointed, the
/// other flags drawn with `ckpt_probability`.
Schedule gadgets_schedule(const TaskGraph& graph, Rng& rng, double ckpt_probability) {
  const std::size_t n = graph.task_count();
  std::vector<VertexId> order(n);
  std::vector<std::uint8_t> flags(n);
  for (VertexId v = 0; v < n; ++v) {
    order[v] = v;
    flags[v] = v % 6 < 3 || rng.bernoulli(ckpt_probability) ? 1 : 0;
  }
  return Schedule(std::move(order), std::move(flags));
}

/// `graph` plus `extra` isolated tasks (no predecessor, no successor),
/// which a random-first linearization scatters anywhere in the order.
TaskGraph with_isolated_tasks(const TaskGraph& graph, std::size_t extra) {
  const std::size_t n = graph.task_count();
  std::vector<double> weights(n + extra);
  for (std::size_t v = 0; v < n + extra; ++v) weights[v] = graph.weight(v % n);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < n; ++v)
    for (const VertexId succ : graph.dag().successors(v)) edges.emplace_back(v, succ);
  TaskGraph out = build_graph(weights, edges);
  out.apply_cost_model(CostModel::proportional(0.15));
  return out;
}

TEST(EvaluatorReference, PaperFigure1Example) {
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});
  expect_evaluators_agree(graph, FailureModel(0.01, 0.0), schedule);
  expect_evaluators_agree(graph, FailureModel(0.001, 5.0), schedule);
}

TEST(EvaluatorReference, LostWorkTableMatchesPaperExample) {
  // Linearization T0 T3 T1 T2 T4 T5 T6 T7 with T3, T4 checkpointed
  // (positions: T0=0, T3=1, T1=2, T2=3, T4=4, T5=5, T6=6, T7=7).
  TaskGraph graph = make_paper_figure1(10.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  const Schedule schedule({0, 3, 1, 2, 4, 5, 6, 7}, {0, 0, 0, 1, 1, 0, 0, 0});

  // Failure during X_5 (T5, position 5): T5 recovers T3's checkpoint only.
  const LostWorkTable at5 = find_lost_work_reference(graph, schedule, 5);
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[5], 0.0);
  EXPECT_DOUBLE_EQ(at5.recovered_cost[5], graph.recovery_cost(3));
  // Next, T6 (position 6) recovers T4's checkpoint; T5 is in memory.
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[6], 0.0);
  EXPECT_DOUBLE_EQ(at5.recovered_cost[6], graph.recovery_cost(4));
  // T7 (position 7) needs T2, which needs T1: both re-executed, as in the
  // paper's walk-through.
  EXPECT_DOUBLE_EQ(at5.reexecuted_weight[7], graph.weight(1) + graph.weight(2));
  EXPECT_DOUBLE_EQ(at5.recovered_cost[7], 0.0);
}

TEST(EvaluatorReference, LostWorkNeverShrinksAcrossPasses) {
  // For a fixed task, T|k_i only grows with the failure position k: a
  // member z of T|k_i is still lost in a later pass k', and if a DFS
  // before i recovered z in pass k', the last node of its path at a
  // position >= k would have recovered z in pass k already. So L^i_k is
  // nondecreasing in k, a value a lane's memo replaces never comes back
  // within a call, and one memo entry per position is all it needs.
  Rng rng(17);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    TaskGraph graph = make_layered_random({.task_count = 10 + seed % 25,
                                           .layer_count = 2 + seed % 5,
                                           .edge_probability = 0.35,
                                           .mean_weight = 15.0,
                                           .seed = seed});
    graph.apply_cost_model(CostModel::proportional(0.15));
    const Schedule schedule = random_schedule(graph, rng, 0.1 * static_cast<double>(seed % 8));
    const std::size_t n = graph.task_count();
    std::vector<double> previous(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const LostWorkTable table = find_lost_work_reference(graph, schedule, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double lost = table.reexecuted_weight[i] + table.recovered_cost[i];
        EXPECT_GE(lost, previous[i]) << "position " << i << " pass " << k << " ("
                                     << describe(FailureModel(0.0), schedule) << ")";
        previous[i] = lost;
      }
    }
  }

  // The premise of the `gadgets` differential family.
  const TaskGraph graph = make_gadgets(1, 7);
  const Schedule schedule = gadgets_schedule(graph, rng, 0.5);
  const auto lost = [&](std::size_t k, std::size_t i) {
    const LostWorkTable table = find_lost_work_reference(graph, schedule, k);
    return table.reexecuted_weight[i] + table.recovered_cost[i];
  };
  EXPECT_EQ(lost(1, 4), 0.0);
  EXPECT_EQ(lost(2, 4), graph.recovery_cost(1));
  EXPECT_EQ(lost(3, 4), graph.recovery_cost(1) + graph.recovery_cost(2));
  for (std::size_t k = 1; k < 5; ++k) EXPECT_EQ(lost(k, 5), graph.recovery_cost(0)) << k;
}

TEST(EvaluatorReference, ChainsForksJoins) {
  Rng rng(99);
  const FailureModel model(0.02, 1.0);
  {
    TaskGraph graph = make_uniform_chain(9, 7.0);
    graph.apply_cost_model(CostModel::constant(1.0));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
  {
    TaskGraph graph = make_fork(20.0, std::vector<double>{3.0, 8.0, 15.0, 2.0, 9.0});
    graph.apply_cost_model(CostModel::proportional(0.2));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
  {
    TaskGraph graph = make_join(std::vector<double>{3.0, 8.0, 15.0, 2.0, 9.0}, 12.0);
    graph.apply_cost_model(CostModel::proportional(0.2));
    for (int rep = 0; rep < 5; ++rep)
      expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.4));
  }
}

TEST(EvaluatorReference, TinyChains) {
  // n = 1..5: the degenerate pass structure (a single pass, no later
  // tasks for the last pass) at the smallest sizes.
  Rng rng(5);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    TaskGraph graph = make_uniform_chain(n, 4.0);
    graph.apply_cost_model(CostModel::constant(0.5));
    for (int rep = 0; rep < 3; ++rep)
      expect_evaluators_agree(graph, FailureModel(1e-2, 0.0), random_schedule(graph, rng, 0.5));
  }
}

TEST(EvaluatorReference, FailureDominatedChainsNeverYieldNaN) {
  // Huge lambda drives Eq. (1) into overflow/underflow territory — the
  // regime where the zero-probability skips matter: the value must be
  // finite or +inf, never NaN, and agree with Algorithm 1.
  TaskGraph graph = make_uniform_chain(48, 50.0);
  graph.apply_cost_model(CostModel::proportional(0.1));
  Rng rng(3);
  const struct {
    FailureModel model;
    double ckpt_probability;
  } cases[] = {{FailureModel(0.5, 0.0), 0.2}, {FailureModel(2.0, 1.0), 0.6}};
  for (const auto& c : cases) {
    for (int rep = 0; rep < 3; ++rep) {
      const Schedule schedule = random_schedule(graph, rng, c.ckpt_probability);
      expect_evaluators_agree(graph, c.model, schedule);
      expect_multi_model_matches_single(graph, c.model, 5.0, schedule, rep);
    }
  }
}

TEST(EvaluatorReference, FailureDominatedDagsOverflowToInfNotNaN) {
  // Layered DAGs at lambda far beyond 1/w: expm1(lambda (L + w + c))
  // overflows to +inf on records whose p * e^{-lambda L} underflows to 0.
  // Eq. (1) has overflowed there, so the makespan is +inf, as Algorithm 1
  // computes it — not the NaN of 0 * inf.
  for (const double lambda : {20.0, 100.0}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      TaskGraph graph = make_layered_random({.task_count = 25,
                                             .layer_count = 4,
                                             .edge_probability = 0.35,
                                             .mean_weight = 15.0,
                                             .weight_cv = 0.6,
                                             .seed = seed});
      graph.apply_cost_model(CostModel::proportional(0.15));
      Rng rng(seed);
      const FailureModel model(lambda, 1.0);
      const Schedule schedule = random_schedule(graph, rng, 0.3);
      expect_evaluators_agree(graph, model, schedule);
      expect_multi_model_matches_single(graph, model, 5.0, schedule, seed);
    }
  }
}

// Randomized sweep: layered DAGs of several shapes x failure rates x
// checkpoint densities, plus two families aimed at the evaluator's
// shortcuts: `isolated` adds tasks with no predecessor and no successor,
// and `gadgets` is make_gadgets (`tasks / 6` copies), whose lost work
// changes between passes and whose last task has the same lost work in
// every pass (a memo leaking from one call into the next would reuse it).
enum class Family : std::uint8_t { layered, isolated, gadgets };

struct DifferentialCase {
  std::uint64_t seed;
  std::size_t tasks;
  std::size_t layers;
  double lambda;
  double downtime;
  double ckpt_probability;
  Family family = Family::layered;
};

class EvaluatorDifferential : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(EvaluatorDifferential, OptimizedMatchesAlgorithmOne) {
  const DifferentialCase& param = GetParam();
  TaskGraph graph;
  if (param.family == Family::gadgets) {
    graph = make_gadgets(param.tasks / 6, param.seed);
  } else {
    graph = make_layered_random({.task_count = param.tasks,
                                 .layer_count = param.layers,
                                 .edge_probability = 0.35,
                                 .mean_weight = 15.0,
                                 .weight_cv = 0.6,
                                 .seed = param.seed});
    graph.apply_cost_model(CostModel::proportional(0.15));
    if (param.family == Family::isolated) graph = with_isolated_tasks(graph, param.tasks / 4);
  }
  const FailureModel model(param.lambda, param.downtime);
  Rng rng(param.seed ^ 0xabcdef);
  for (int rep = 0; rep < 3; ++rep) {
    const Schedule schedule = param.family == Family::gadgets
                                  ? gadgets_schedule(graph, rng, param.ckpt_probability)
                                  : random_schedule(graph, rng, param.ckpt_probability);
    expect_evaluators_agree(graph, model, schedule);
    expect_multi_model_matches_single(graph, model, 2.0, schedule, param.seed * 3 + rep);
  }
}

std::vector<DifferentialCase> differential_cases() {
  std::vector<DifferentialCase> cases;
  std::uint64_t seed = 1;
  for (const std::size_t tasks : {6, 12, 25, 40}) {
    for (const double lambda : {1e-3, 1e-2}) {
      for (const double ckpt_probability : {0.0, 0.3, 0.8}) {
        cases.push_back({seed++, tasks, std::max<std::size_t>(2, tasks / 6), lambda,
                         (seed % 2) ? 0.0 : 2.0, ckpt_probability});
      }
    }
  }
  // Failure-dominated rates: most records' probabilities underflow (exact
  // sweeps no factor for them, fast ends its passes early), so the memo
  // skips records a later pass looks up again, next to the small rates
  // of the multi-model set, whose lanes live or die partway.
  for (const double lambda : {0.3, 1.0}) {
    for (const std::size_t tasks : {25, 40}) cases.push_back({seed++, tasks, 5, lambda, 1.0, 0.3});
  }
  for (const std::size_t tasks : {12, 40}) {
    for (const double lambda : {1e-3, 2e-2}) {
      cases.push_back({seed++, tasks, std::max<std::size_t>(2, tasks / 6), lambda, 0.0, 0.3,
                       Family::isolated});
    }
  }
  for (const std::size_t tasks : {6, 30}) {
    for (const double lambda : {1e-2, 5e-2}) {
      cases.push_back({seed++, tasks, 0, lambda, 2.0, 0.5, Family::gadgets});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomDags, EvaluatorDifferential,
                         ::testing::ValuesIn(differential_cases()));

TEST(EvaluatorReference, PegasusWorkflowsSmall) {
  // One real workflow of each family, moderate size.
  Rng rng(2024);
  for (const WorkflowKind kind : all_workflow_kinds()) {
    const TaskGraph graph = generate_workflow(
        kind, {.task_count = 50, .seed = 5, .weight_cv = 0.3,
               .cost_model = CostModel::proportional(0.1)});
    const FailureModel model(kind == WorkflowKind::genome ? 1e-5 : 1e-3, 0.0);
    expect_evaluators_agree(graph, model, random_schedule(graph, rng, 0.25));
  }
}

}  // namespace
}  // namespace fpsched
