// Failure inter-arrival distributions for the simulator.
//
// The paper's model (and the analytic evaluator) assume exponential
// failures. The simulator additionally supports Weibull inter-arrival
// times — the distribution the related work ([14-16, 18]) uses for real
// platforms — as a *robustness* probe: schedules optimized under the
// exponential assumption are executed under a Weibull renewal process
// with the same MTBF (each failure is a renewal point, as in Gelenbe &
// Hernandez). shape < 1 models infant mortality (bursty failures),
// shape > 1 models aging.
#pragma once

#include "support/rng.hpp"

namespace fpsched {

class FaultDistribution {
 public:
  enum class Law { exponential, weibull };

  /// Exponential with rate `lambda` (> 0).
  static FaultDistribution exponential(double lambda);

  /// Weibull with the given shape (> 0) and *mean* inter-arrival time
  /// `mtbf` (> 0); the scale is derived as mtbf / Gamma(1 + 1/shape).
  static FaultDistribution weibull_from_mtbf(double shape, double mtbf);

  /// Weibull from shape and scale directly.
  static FaultDistribution weibull(double shape, double scale);

  Law law() const { return law_; }
  bool is_exponential() const { return law_ == Law::exponential; }

  /// Mean inter-arrival time (the platform MTBF).
  double mean() const;

  /// Samples the uptime gap until the next failure (renewal process).
  double sample_gap(Rng& rng) const;

 private:
  FaultDistribution(Law law, double a, double b) : law_(law), a_(a), b_(b) {}

  Law law_;
  double a_;  // exponential: rate; weibull: shape
  double b_;  // exponential: unused; weibull: scale
};

}  // namespace fpsched
