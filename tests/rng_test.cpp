// Tests for the xoshiro256** RNG wrapper and its distributions.
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace fpsched {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123);
  Rng b(124);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkedStreamsAreIndependentAndReproducible) {
  const Rng root(7);
  Rng s1 = root.fork(1);
  Rng s1_again = root.fork(1);
  Rng s2 = root.fork(2);
  bool all_equal = true;
  for (int i = 0; i < 50; ++i) {
    const auto a = s1();
    EXPECT_EQ(a, s1_again());
    if (a != s2()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 8.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 8.0);
  }
}

TEST(Rng, UniformIndexCoversTheRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++hits[rng.uniform_index(10)];
  for (const int h : hits) {
    // Each bucket expects 10000 +- a few hundred.
    EXPECT_GT(h, 9300);
    EXPECT_LT(h, 10700);
  }
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, ExponentialHasCorrectMeanAndVariance) {
  Rng rng(13);
  const double lambda = 0.05;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.push(rng.exponential(lambda));
  EXPECT_NEAR(stats.mean(), 1.0 / lambda, 0.3);    // mean 20
  EXPECT_NEAR(stats.stddev(), 1.0 / lambda, 0.5);  // stddev 20
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
}

TEST(Rng, ExponentialMemorylessTail) {
  // P(X > a+b | X > a) == P(X > b): compare empirical tail fractions.
  Rng rng(17);
  const double lambda = 0.1;
  int beyond_10 = 0;
  int beyond_20_given_10 = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.exponential(lambda);
    if (x > 10.0) {
      ++beyond_10;
      if (x > 20.0) ++beyond_20_given_10;
    }
  }
  const double conditional = static_cast<double>(beyond_20_given_10) / beyond_10;
  EXPECT_NEAR(conditional, std::exp(-lambda * 10.0), 0.01);
}

TEST(Rng, GammaMatchesMeanAndCv) {
  Rng rng(19);
  RunningStats stats;
  const double mean = 50.0;
  const double cv = 0.4;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.gamma_mean_cv(mean, cv);
    EXPECT_GT(x, 0.0);
    stats.push(x);
  }
  EXPECT_NEAR(stats.mean(), mean, 0.5);
  EXPECT_NEAR(stats.stddev() / stats.mean(), cv, 0.02);
  EXPECT_DOUBLE_EQ(rng.gamma_mean_cv(mean, 0.0), mean);
}

TEST(Rng, GammaRejectsNonFiniteShapeOrScale) {
  // An infinite scale drew inf, or NaN (inf * 0) below shape 1: a cv of
  // 1e153 at a mean of 500 overflows the scale mean * cv^2.
  Rng rng(41);
  EXPECT_THROW(rng.gamma(1.0, std::numeric_limits<double>::infinity()), InvalidArgument);
  EXPECT_THROW(rng.gamma(std::numeric_limits<double>::infinity(), 1.0), InvalidArgument);
  EXPECT_THROW(rng.gamma_mean_cv(500.0, 1e153), InvalidArgument);
  // A finite scale draws finite values, even at a cv of 1e150 (whose
  // draws underflow to 0, which is why the option table stops at 5).
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(std::isfinite(rng.gamma_mean_cv(500.0, 1e150)));
}

TEST(Rng, GammaSmallShape) {
  // shape < 1 exercises the boost branch.
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.push(rng.gamma(0.5, 2.0));
  EXPECT_NEAR(stats.mean(), 1.0, 0.05);  // mean = shape * scale
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.push(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(31);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.25)) ++heads;
  EXPECT_NEAR(heads / 100000.0, 0.25, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fpsched
