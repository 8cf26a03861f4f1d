// Monte-Carlo trial aggregation. The trials run serially; parallelism
// over scenarios comes from the caller's engine.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "support/stats.hpp"

namespace fpsched {

struct TrialOptions {
  std::size_t trials = 10000;
  std::uint64_t seed = 1234;
};

struct MonteCarloSummary {
  RunningStats makespan;
  RunningStats failures;
  RunningStats wasted_time;

  double mean_makespan() const { return makespan.mean(); }
  double ci95() const { return makespan.ci95_halfwidth(); }

  /// True when `value` lies inside the 95% CI of the mean makespan widened
  /// by `slack` standard errors (guards differential tests against rare
  /// statistical flukes).
  bool consistent_with(double value, double slack = 2.0) const;
};

/// Runs trials t = 0..trials-1 in order (trial t uses rng.fork(t) of a
/// root RNG seeded with options.seed) and pushes each into one summary, so
/// the result is a pure function of (simulator, trials, seed).
MonteCarloSummary run_trials(const FaultSimulator& simulator, const TrialOptions& options = {});

/// Same, but injecting failures from an arbitrary renewal process (see
/// FaultSimulator::run_with_distribution).
MonteCarloSummary run_trials_with_distribution(const FaultSimulator& simulator,
                                               const FaultDistribution& faults,
                                               const TrialOptions& options = {});

}  // namespace fpsched
