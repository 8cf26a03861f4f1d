// The 14 named heuristics of Section 5 and the one runner for them.
//
// A heuristic = linearization strategy x checkpointing strategy:
//   {DF, BF, RF} x {CkptW, CkptC, CkptD, CkptPer}  (12, budget swept)
//   + DF-CkptNvr + DF-CkptAlws                     (2 baselines)
//
// The budgeted strategies (CkptW/C/D/Per) fix the number of checkpoints N
// and the paper searches N = 1..n-1 exhaustively, evaluating each
// candidate schedule with the Theorem-3 evaluator and keeping the best.
// A stride > 1 subsamples the N grid; an ablation bench quantifies the
// quality loss. A non-budgeted strategy has a single candidate.
//
// The sweep runs in blocks of B consecutive budgets, each evaluated in one
// block call (see evaluator.hpp): the strategy's placement is computed
// once per run (CheckpointPlacer: the sorting strategies rank the tasks
// once, and budget N takes the top N), so neighbouring budgets differ in a
// few flags and share each pass's lost-work walk below their first
// difference. B depends only on n and the run's distinct failure rates
// (ScheduleEvaluator::block_size: each member keeps 2n doubles of lane
// state per rate, within 96 KiB per block, at most 16 members), never on
// the thread count, so every counter is thread-invariant.
//
// The blocks run through parallel_for_workers on `pool`, which the
// caller owns (in practice the experiment engine's, via worker_options):
// the caller evaluates blocks itself (worker 0, on the caller's
// workspace) while idle pool workers join on private workspaces. Without
// a pool, or when the pool is busy, the sweep is serial. Every block
// writes only its own slots and each makespan is a pure function of its
// schedule, so the result is bit-identical however the blocks were
// distributed.
//
// One run can serve several failure models (the lambda/D siblings of an
// engine cell group): the candidate schedules do not depend on the model,
// so each block is evaluated for every model in one call, and each model
// keeps its own first strict minimum. Only the winning budgets are kept:
// each distinct winner's schedule is rebuilt afterwards (its flags are a
// pure function of graph, order, strategy and budget) and evaluated once,
// in one multi-model call, for the models that picked it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"
#include "dag/linearize.hpp"
#include "heuristics/checkpoint_strategy.hpp"

namespace fpsched {

class ThreadPool;

struct HeuristicSpec {
  LinearizeMethod linearization = LinearizeMethod::depth_first;
  CkptStrategy checkpointing = CkptStrategy::by_weight;

  /// Paper-style name, e.g. "DF-CkptW".
  std::string name() const;

  bool operator==(const HeuristicSpec&) const = default;
};

/// The paper's 14 heuristics, baselines first.
std::vector<HeuristicSpec> all_heuristics();

/// The 12 budgeted combinations only (no CkptNvr / CkptAlws).
std::vector<HeuristicSpec> budgeted_heuristics();

struct HeuristicOptions {
  /// Linearization options of the overload that linearizes itself.
  LinearizeOptions linearize = {};
  /// Evaluate budgets 1, 1+stride, 1+2*stride, ...; n-1 is always included
  /// (the paper sweeps 1..n-1; a single task sweeps N = 0 only). Must be
  /// >= 1.
  std::size_t stride = 1;
  /// Optional caller-owned scratch for the caller's own evaluations (and
  /// the winners') — lets an outer engine worker keep one workspace
  /// across runs.
  EvaluatorWorkspace* workspace = nullptr;
  /// Pool whose idle workers may join the sweep (null = serial).
  ThreadPool* pool = nullptr;
  /// Evaluator algorithm of every evaluation.
  EvalMath eval = EvalMath::exact;
};

/// One evaluated budget of the sweep.
struct SweepPoint {
  /// The budget N; a non-budgeted strategy's single point is labelled
  /// with its checkpoint count.
  std::size_t budget = 0;
  /// Checkpoints actually taken (periodic may take fewer than the budget).
  std::size_t checkpoints = 0;
  double expected_makespan = 0.0;
};

struct HeuristicResult {
  HeuristicSpec spec;
  Schedule schedule;
  Evaluation evaluation;
  std::size_t best_budget = 0;
  /// One point per evaluated budget, ascending.
  std::vector<SweepPoint> curve;
};

/// Runs one heuristic: linearize, place checkpoints (sweeping the budget
/// when applicable), evaluate the winner.
HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const HeuristicOptions& options = {});

/// As above, but with the linearization precomputed by the caller. `order`
/// must equal linearize(graph, weights, spec.linearization,
/// options.linearize); the engine's instance cache uses this to amortize
/// linearization work across the scenarios sharing an instance. Results
/// are bit-identical to the linearizing overload.
HeuristicResult run_heuristic(const ScheduleEvaluator& evaluator, const HeuristicSpec& spec,
                              const std::vector<VertexId>& order,
                              const HeuristicOptions& options = {});

/// The linearized run under each of `models` (which stand in for the
/// evaluator's model; not empty) at once: one sweep of multi-model
/// evaluations, then one multi-model evaluation per distinct winning
/// budget, in first-appearance order. result[m] is bit-identical to
/// run_heuristic on an evaluator for models[m].
std::vector<HeuristicResult> run_heuristic(const ScheduleEvaluator& evaluator,
                                           std::span<const FailureModel> models,
                                           const HeuristicSpec& spec,
                                           const std::vector<VertexId>& order,
                                           const HeuristicOptions& options = {});

/// Runs every heuristic in `specs` and returns results in the same order.
std::vector<HeuristicResult> run_heuristics(const ScheduleEvaluator& evaluator,
                                            const std::vector<HeuristicSpec>& specs,
                                            const HeuristicOptions& options = {});

/// Index of the result with the smallest expected makespan.
std::size_t best_result_index(const std::vector<HeuristicResult>& results);

}  // namespace fpsched
