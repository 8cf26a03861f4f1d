// Declarative experiment scenarios (the unit of work of the engine).
//
// The paper's whole evaluation is a grid: workflow kind x size x failure
// model x heuristic. A ScenarioSpec pins down one cell of such a grid —
// everything needed to reproduce one plotted point deterministically,
// independent of execution order or thread count. A ScenarioGrid is one
// figure panel: a base spec varied along one axis (the task count of
// Figures 2-6, the lambda of Figure 7, or the downtime D) under each of
// a list of policies; `enumerate()` flattens it into the scenario list
// the ExperimentEngine shards across workers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_model.hpp"
#include "heuristics/heuristic.hpp"
#include "workflows/generator.hpp"

namespace fpsched::engine {

/// What to run on a scenario's instance: one fixed heuristic, the best
/// linearization for a checkpointing strategy (the selection rule of
/// Figures 3 and 5-7; non-budgeted strategies are DF-only per Section 5),
/// or — for the robustness study — the schedule that wins across ALL
/// heuristics, re-scored under a simulated renewal failure process.
struct ScenarioPolicy {
  enum class Kind : std::uint8_t { fixed_heuristic, best_linearization, simulated_best };

  /// How a simulated_best policy scores the winning schedule: `analytic`
  /// reports the exponential-model expectation unchanged (the sanity
  /// baseline row), `exponential`/`weibull` replace it with the
  /// Monte-Carlo mean makespan under that inter-failure distribution
  /// (Weibull keeps the exponential model's MTBF, so only the shape of
  /// the failure law changes — the robustness question of Section 7).
  enum class SimDistribution : std::uint8_t { analytic, exponential, weibull };

  Kind kind = Kind::fixed_heuristic;
  HeuristicSpec heuristic;                           // fixed_heuristic
  CkptStrategy strategy = CkptStrategy::by_weight;   // best_linearization

  // simulated_best only. sim_seed is part of the spec so results are
  // identical under any sharding or thread count.
  SimDistribution sim_distribution = SimDistribution::analytic;
  double sim_shape = 1.0;        // Weibull shape (ignored otherwise)
  std::size_t sim_trials = 20000;
  std::uint64_t sim_seed = 31;

  static ScenarioPolicy fixed(HeuristicSpec spec);
  static ScenarioPolicy best_lin(CkptStrategy strategy);
  static ScenarioPolicy simulated(SimDistribution distribution, double shape, std::size_t trials,
                                  std::uint64_t seed = 31);

  /// Series label: the heuristic name ("DF-CkptW"), the strategy name
  /// ("CkptW") — matching the paper's figure legends — or the simulated
  /// distribution ("BestEV", "Sim-Exp", "Sim-Weibull-0.7").
  std::string name() const;
};

/// One fully specified experiment cell.
struct ScenarioSpec {
  WorkflowKind workflow = WorkflowKind::montage;
  std::size_t task_count = 100;
  FailureModel model{1e-3, 0.0};
  CostModel cost_model = CostModel::proportional(0.1);
  ScenarioPolicy policy;

  /// Instance randomness: the generator is seeded with
  /// `workflow_seed + task_count` (distinct instance per size,
  /// reproducible — the convention of every figure bench).
  std::uint64_t workflow_seed = 42;
  double weight_cv = 0.2;

  /// N-sweep stride (1 = exhaustive, as in the paper). Must be >= 1.
  std::size_t stride = 1;
  /// Linearization options (RF seed, outweight mode) — part of the spec so
  /// results do not depend on who executes the scenario.
  LinearizeOptions linearize;
  /// Evaluator algorithm of every evaluation (see evaluator.hpp). Fast
  /// records differ from exact ones in their last digits and name their
  /// algorithm, so it is part of the scenario like any other field.
  EvalMath eval_math = EvalMath::exact;

  /// Position in the flattened grid, assigned by ScenarioGrid::enumerate;
  /// records carry it so a shard merge can check their order. Randomness
  /// inside a scenario is seeded from spec fields only (the robustness
  /// study's trials from `policy.sim_seed`), never from who runs it, so
  /// results are identical under any sharding.
  std::uint64_t scenario_index = 0;

  /// The scenario's workflow instance (generation is deterministic).
  TaskGraph instantiate() const;

  /// "CyberShake n=200 lambda=0.001 DF-CkptW" — for logs and errors.
  std::string label() const;
};

/// Canonical, versioned text form of EVERY ScenarioSpec field — the
/// collision-proof body of content-addressed cache keys. Two specs map to
/// the same string iff every field (policy sub-fields included) is equal;
/// doubles serialize at round-trip precision, enums as their numeric
/// codes, and the evaluator algorithm last, as ` math=exact` or
/// ` math=fast-recurrence/2`. The "spec/1" version prefix invalidates
/// persisted keys whenever the spec gains a field that changes record
/// bytes.
std::string canonical_spec_string(const ScenarioSpec& spec);

/// FNV-1a 64-bit hash (the compact index form of canonical key strings).
std::uint64_t fnv1a64(std::string_view text);

/// The ScenarioSpec field a grid varies: the x axis of its panel.
enum class GridAxis : std::uint8_t { task_count, lambda, downtime };

/// Axis label used by panels and tables ("number of tasks", "lambda",
/// "downtime").
std::string to_string(GridAxis axis);

/// One panel's scenarios: `base` with its axis field set to each point of
/// `xs`, run under each policy. Scenario i is point i / policies.size()
/// under policies[i % policies.size()], with scenario_index i, so a grid
/// always flattens to the same list and a panel reads its series back by
/// the same rule.
struct ScenarioGrid {
  /// Every field but the axis value, the policy and the index: the
  /// workflow, cost model, seeds, stride and evaluator algorithm, plus
  /// the task count or failure model that the axis leaves fixed.
  ScenarioSpec base;
  GridAxis axis = GridAxis::task_count;
  /// The axis points: task counts (whole numbers in [1, 2^53]), lambdas
  /// (each keeps base's downtime) or downtimes (each keeps base's lambda).
  std::vector<double> xs;
  std::vector<ScenarioPolicy> policies;

  std::size_t scenario_count() const { return xs.size() * policies.size(); }

  /// Flattens the grid; throws InvalidArgument when it is malformed (see
  /// validate).
  std::vector<ScenarioSpec> enumerate() const;

  /// Throws InvalidArgument unless the grid has a point and a policy, a
  /// stride >= 1, and task-count points that name a task count exactly.
  void validate() const;
};

}  // namespace fpsched::engine
