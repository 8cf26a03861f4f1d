// Declarative experiment scenarios (the unit of work of the engine).
//
// The paper's whole evaluation is a grid: workflow kind x size x failure
// model x heuristic. A ScenarioSpec pins down one cell of such a grid —
// everything needed to reproduce one plotted point deterministically,
// independent of execution order or thread count. A ScenarioGrid is the
// declarative cross product the figure binaries used to hand-roll as
// nested loops; `enumerate()` flattens it into the scenario list the
// ExperimentEngine shards across workers.
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

/// Which grid dimension forms the x axis of assembled panels.
enum class GridAxis : std::uint8_t { task_count, lambda, downtime };

/// Axis label used by panels and tables ("number of tasks", "lambda",
/// "downtime").
std::string to_string(GridAxis axis);

/// The declarative cross product kind x size x lambda x downtime x
/// cost model x policy. Scenario order is fixed (kind-major, then size,
/// lambda, downtime, cost model, then policy) so a grid always flattens to
/// the same list; grids whose extra dimensions are left empty keep the
/// historical kind x size x lambda x policy order. The fields after
/// `policies`, but `axis`, are copied into each spec.
struct ScenarioGrid {
  std::vector<WorkflowKind> workflows;
  std::vector<std::size_t> sizes{100};
  /// Failure rates; empty = the paper's per-workflow lambda
  /// (`paper_lambda`).
  std::vector<double> lambdas;
  /// Downtime grid (seconds after each failure); empty = D = 0. Required
  /// non-empty for a downtime-axis grid.
  std::vector<double> downtimes;
  /// Cost-model grid; empty = c = r = 0.1 w.
  std::vector<CostModel> cost_models;
  std::vector<ScenarioPolicy> policies;

  std::uint64_t seed = 42;
  double weight_cv = 0.2;
  std::size_t stride = 1;
  LinearizeOptions linearize;
  EvalMath eval_math = EvalMath::exact;
  GridAxis axis = GridAxis::task_count;

  std::size_t scenario_count() const;

  /// Flattens the grid; throws InvalidArgument when the grid is malformed
  /// (no workflows/sizes/policies, stride < 1, or an empty axis).
  std::vector<ScenarioSpec> enumerate() const;

  /// Throws InvalidArgument when the grid cannot be enumerated.
  void validate() const;
};

}  // namespace fpsched::engine
