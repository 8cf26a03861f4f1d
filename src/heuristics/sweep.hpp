// Exhaustive checkpoint-budget sweep (Section 5).
//
// The budgeted strategies (CkptW/C/D/Per) fix the number of checkpoints N
// and the paper searches N = 1..n-1 exhaustively, evaluating each
// candidate schedule with the Theorem-3 evaluator and keeping the best.
// A stride > 1 subsamples the N grid — an ablation bench quantifies the
// quality loss.
//
// The candidates run through parallel_for_workers on `pool`, which the
// caller owns (in practice the experiment engine's, via worker_options):
// the caller evaluates budgets itself (worker 0, on the caller's
// workspace) while idle pool workers join on private workspaces. Without
// a pool, or when the pool is busy, the sweep is serial. Every candidate writes only its
// own slots and each evaluation is a pure function of its schedule, so
// the result is bit-identical however the budgets were distributed.
//
// One sweep can serve several failure models (the lambda/D siblings of an
// engine cell group): the candidate schedules do not depend on the model,
// so each is built once and evaluated for every model in one
// multi-model evaluator call (see evaluator.hpp), and each model keeps
// its own first strict minimum. Only the winning budgets are kept: the
// winner's schedule is rebuilt afterwards, since make_heuristic_schedule
// is a pure function of (graph, order, strategy, budget).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"
#include "heuristics/checkpoint_strategy.hpp"

namespace fpsched {

class ThreadPool;

struct SweepOptions {
  /// Evaluate budgets 1, 1+stride, 1+2*stride, ...; n-1 is always included
  /// (the paper sweeps 1..n-1; a single task sweeps N = 0 only).
  std::size_t stride = 1;
  /// Optional caller-owned scratch for the caller's own evaluations (and
  /// the single candidate of a non-budgeted strategy) — lets an outer
  /// engine worker keep one workspace across sweeps.
  EvaluatorWorkspace* workspace = nullptr;
  /// Pool whose idle workers may join the sweep (null = serial).
  ThreadPool* pool = nullptr;
  /// Evaluator algorithm of every candidate evaluation.
  EvalMath eval = EvalMath::exact;

  /// Throws InvalidArgument unless the options are well formed
  /// (stride >= 1; 0 would loop forever on the budget grid).
  void validate() const;
};

struct SweepPoint {
  std::size_t budget = 0;
  /// Checkpoints actually taken (periodic may take fewer than the budget).
  std::size_t checkpoints = 0;
  double expected_makespan = 0.0;
};

struct SweepResult {
  std::size_t best_budget = 0;
  double best_expected_makespan = 0.0;
  Schedule best_schedule;
  /// One point per evaluated budget, ascending.
  std::vector<SweepPoint> curve;
};

/// Sweeps the checkpoint budget for a budgeted strategy on a fixed
/// linearization. For non-budgeted strategies returns the single candidate.
SweepResult sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                    const std::vector<VertexId>& order, CkptStrategy strategy,
                                    const SweepOptions& options = {});

/// The same sweep under each of `models` (which stand in for the
/// evaluator's model) at once: result[m] is bit-identical to sweeping on
/// an evaluator for models[m]. `models` must not be empty.
std::vector<SweepResult> sweep_checkpoint_budget(const ScheduleEvaluator& evaluator,
                                                 std::span<const FailureModel> models,
                                                 const std::vector<VertexId>& order,
                                                 CkptStrategy strategy,
                                                 const SweepOptions& options = {});

}  // namespace fpsched
