// The 14 named heuristics of Section 5 and a runner for them.
//
// A heuristic = linearization strategy x checkpointing strategy:
//   {DF, BF, RF} x {CkptW, CkptC, CkptD, CkptPer}  (12, budget swept)
//   + DF-CkptNvr + DF-CkptAlws                     (2 baselines)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/linearize.hpp"
#include "heuristics/sweep.hpp"

namespace fpsched {

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
  LinearizeOptions linearize;
  SweepOptions sweep;
};

struct HeuristicResult {
  HeuristicSpec spec;
  Schedule schedule;
  Evaluation evaluation;
  std::size_t best_budget = 0;
  /// The full budget-vs-expected curve (budgeted strategies only).
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
/// evaluator's model) at once: one multi-model sweep, then each model's
/// winner is evaluated under that model, models that picked the same
/// budget sharing one multi-model call. result[m] is bit-identical to
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
