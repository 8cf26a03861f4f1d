// Extension beyond the paper: evaluator-guided greedy checkpoint insertion.
//
// The paper's budgeted strategies pick *which* tasks to checkpoint from a
// static ranking (weight / cost / outweight) and only search the budget N.
// With the fast Theorem-3 evaluator, a stronger search becomes practical:
// start from the empty checkpoint set and repeatedly insert (or remove)
// the single checkpoint with the largest expected-makespan improvement,
// stopping when no move helps. This is our own addition (not in the
// paper); the optimality-gap and ablation studies compare it against the
// 14 paper heuristics, one search per engine worker, so the search itself
// is serial.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"

namespace fpsched {

struct GreedyResult {
  Schedule schedule;
  double expected_makespan = 0.0;
  std::size_t rounds = 0;
  /// expected makespan after each accepted move (first entry = no
  /// checkpoints).
  std::vector<double> trajectory;
};

/// Greedy local search over checkpoint sets for a fixed linearization.
/// Each round evaluates every single-flip move (insert where absent,
/// remove where present) serially with the analytic evaluator and applies
/// the best; the search stops after n + 1 rounds or when the best move
/// gains less than 1e-12 relative. Complexity: O(rounds * n) evaluations.
GreedyResult greedy_checkpoint_search(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order);

}  // namespace fpsched
