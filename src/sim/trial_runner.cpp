#include "sim/trial_runner.hpp"

#include <cmath>

namespace fpsched {

bool MonteCarloSummary::consistent_with(double value, double slack) const {
  const double half = makespan.ci95_halfwidth() + slack * makespan.standard_error();
  return std::fabs(value - makespan.mean()) <= half;
}

namespace {

MonteCarloSummary run_trials_impl(const FaultSimulator& simulator,
                                  const FaultDistribution* faults, const TrialOptions& options) {
  const Rng root(options.seed);
  MonteCarloSummary summary;
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    Rng rng = root.fork(trial);
    const SimResult result =
        faults ? simulator.run_with_distribution(rng, *faults) : simulator.run(rng);
    summary.makespan.push(result.makespan);
    summary.failures.push(static_cast<double>(result.failure_count));
    summary.wasted_time.push(result.wasted_time);
  }
  return summary;
}

}  // namespace

MonteCarloSummary run_trials(const FaultSimulator& simulator, const TrialOptions& options) {
  return run_trials_impl(simulator, nullptr, options);
}

MonteCarloSummary run_trials_with_distribution(const FaultSimulator& simulator,
                                               const FaultDistribution& faults,
                                               const TrialOptions& options) {
  return run_trials_impl(simulator, &faults, options);
}

}  // namespace fpsched
