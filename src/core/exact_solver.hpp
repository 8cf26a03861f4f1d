// Exact optimal solver for small instances of DAG-ChkptSched.
//
// The problem is NP-complete (Theorem 2), so no polynomial algorithm is
// expected; for small graphs, however, exhaustive search is feasible and
// gives the library something the paper does not have: a ground-truth
// optimum to measure the heuristics' optimality gap against (the paper
// can only compare heuristics with each other).
//
// Two search modes, both serial (parallelism over instances comes from
// the caller's engine):
//  * fixed order  — enumerate the 2^n checkpoint subsets for a given
//    linearization (n <= kExactMaxTasks);
//  * full         — additionally enumerate every linearization of the DAG
//    by backtracking over ready sets (use only for tiny / narrow graphs;
//    a DAG with more than kExactMaxLinearizations orders is rejected
//    before any schedule is evaluated).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/evaluator.hpp"
#include "core/schedule.hpp"

namespace fpsched {

/// Hard cap on task count (2^n subsets are enumerated per order).
inline constexpr std::size_t kExactMaxTasks = 20;
/// Full mode only: reject a DAG with more linearizations than this.
inline constexpr std::uint64_t kExactMaxLinearizations = 200000;

struct ExactSolution {
  Schedule schedule;
  double expected_makespan = 0.0;
  std::uint64_t schedules_evaluated = 0;
  std::uint64_t linearizations_seen = 0;
};

/// Optimal checkpoint set for a fixed linearization (exhaustive over the
/// 2^n subsets in ascending mask order, evaluated with Theorem 3; ties
/// keep the smallest mask).
ExactSolution solve_exact_fixed_order(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order);

/// Global optimum over both decisions: every linearization x every
/// checkpoint subset. Exponential in both dimensions; intended for
/// n <= ~10.
ExactSolution solve_exact(const ScheduleEvaluator& evaluator);

/// Enumerates every linearization of `dag`, invoking `visit` for each.
/// Returns the number of linearizations. Throws when the count exceeds
/// `limit` (0 = unlimited). Deterministic order (ready tasks tried in
/// ascending id).
std::uint64_t for_each_linearization(const Dag& dag,
                                     const std::function<void(const std::vector<VertexId>&)>& visit,
                                     std::uint64_t limit = 0);

/// Just the count (same traversal, no callback work).
std::uint64_t count_linearizations(const Dag& dag, std::uint64_t limit = 0);

}  // namespace fpsched
