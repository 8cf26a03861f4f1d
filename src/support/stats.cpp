#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace fpsched {

void RunningStats::push(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::standard_error() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_halfwidth() const { return 1.96 * standard_error(); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure(q >= 0.0 && q <= 1.0, "quantile requires q in [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double relative_difference(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

}  // namespace fpsched
