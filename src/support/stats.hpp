// Streaming statistics (Welford) and simple summaries for experiment output.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace fpsched {

/// Numerically stable streaming mean/variance accumulator (Welford), with
/// min/max tracking.
class RunningStats {
 public:
  void push(double x);

  std::size_t count() const { return count_; }
  /// NaN when no sample was pushed, like min()/max() — an empty
  /// accumulator must not masquerade as a real 0.0 in rendered cells.
  double mean() const { return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : mean_; }
  /// Unbiased sample variance (0 when fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_; }
  double max() const { return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_; }

  /// Standard error of the mean (0 when fewer than two samples).
  double standard_error() const;

  /// Half-width of the normal-approximation 95% confidence interval on the
  /// mean (z = 1.96).
  double ci95_halfwidth() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linearly interpolated quantile (q in [0,1]) of a sample; the input is
/// copied and sorted. Returns NaN for empty input.
double quantile(std::vector<double> values, double q);

/// Relative difference |a-b| / max(|a|,|b|,eps); convenient for approximate
/// comparisons across widely varying magnitudes.
double relative_difference(double a, double b);

}  // namespace fpsched
