// Tests for the Welford accumulator and quantile helpers.
#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace fpsched {
namespace {

TEST(RunningStats, EmptyState) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  // An empty accumulator has no mean; 0.0 would let an empty cell pose as
  // a real measurement in rendered tables.
  EXPECT_TRUE(std::isnan(stats.mean()));
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_TRUE(std::isnan(stats.min()));
  EXPECT_TRUE(std::isnan(stats.max()));
  EXPECT_DOUBLE_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MeanRecoversAfterFirstPush) {
  RunningStats stats;
  stats.push(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats stats;
  for (const double x : xs) stats.push(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.push(42.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.standard_error(), 0.0);
}

TEST(RunningStats, CatastrophicCancellationResistance) {
  // Large offset, small variance: Welford keeps precision.
  RunningStats stats;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) stats.push(offset + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(stats.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 100; ++i) small.push(i % 10);
  for (int i = 0; i < 10000; ++i) large.push(i % 10);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Quantile, InterpolatesSorted) {
  const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 25.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
  EXPECT_THROW(quantile(values, 1.5), InvalidArgument);
}

TEST(RelativeDifference, Basics) {
  EXPECT_DOUBLE_EQ(relative_difference(10.0, 10.0), 0.0);
  EXPECT_NEAR(relative_difference(10.0, 11.0), 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(relative_difference(0.0, 0.0), 0.0, 1e-12);
  EXPECT_GT(relative_difference(1e-20, 2e-20), 0.0);
}

}  // namespace
}  // namespace fpsched
