#include "sim/fault_distribution.hpp"

#include <cmath>

#include "support/error.hpp"

namespace fpsched {

FaultDistribution FaultDistribution::exponential(double lambda) {
  ensure(lambda > 0.0, "exponential fault law requires lambda > 0");
  return FaultDistribution(Law::exponential, lambda, 0.0);
}

FaultDistribution FaultDistribution::weibull(double shape, double scale) {
  ensure(shape > 0.0 && scale > 0.0, "weibull fault law requires positive shape and scale");
  return FaultDistribution(Law::weibull, shape, scale);
}

FaultDistribution FaultDistribution::weibull_from_mtbf(double shape, double mtbf) {
  ensure(shape > 0.0 && mtbf > 0.0, "weibull fault law requires positive shape and MTBF");
  const double scale = mtbf / std::tgamma(1.0 + 1.0 / shape);
  return FaultDistribution(Law::weibull, shape, scale);
}

double FaultDistribution::mean() const {
  switch (law_) {
    case Law::exponential: return 1.0 / a_;
    case Law::weibull: return b_ * std::tgamma(1.0 + 1.0 / a_);
  }
  return 0.0;
}

double FaultDistribution::sample_gap(Rng& rng) const {
  switch (law_) {
    case Law::exponential: return rng.exponential(a_);
    case Law::weibull: {
      // Inverse CDF: scale * (-ln(1-U))^{1/shape}.
      const double u = rng.uniform();
      return b_ * std::pow(-std::log1p(-u), 1.0 / a_);
    }
  }
  return 0.0;
}

}  // namespace fpsched
