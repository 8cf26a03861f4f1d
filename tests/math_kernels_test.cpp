// Contract tests for the batched exp/expm1 sweeps the evaluator stages
// its transcendentals through: they must be bitwise-identical to
// element-wise libm (the byte-determinism contract of every run) and safe
// to run in place.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/math_kernels.hpp"

namespace fpsched {
namespace {

std::vector<double> uniform_samples(double lo, double hi, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> samples(count);
  for (double& x : samples) x = dist(rng);
  return samples;
}

constexpr std::size_t kSamples = 10000;

TEST(MathKernels, ExactBackendIsBitwiseLibm) {
  // One mixed pool covering every regime at once — exactness has no
  // regime structure, any input must round-trip through libm untouched.
  std::vector<double> x = uniform_samples(-746.0, 710.5, 4 * kSamples, 1);
  const std::vector<double> extra = uniform_samples(-1e-3, 1e-3, kSamples, 2);
  x.insert(x.end(), extra.begin(), extra.end());
  std::vector<double> out(x.size());

  vexpm1(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(std::expm1(x[i])));
  }
  const double lambda = 0.00137;
  vexp_neg_mul(lambda, x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The fused form must reproduce the evaluator's historical expression
    // shape exactly: exp((-lambda) * x), not exp(-(lambda * x)).
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(std::exp(-lambda * x[i])));
  }
}

TEST(MathKernels, SweepsAreInPlaceSafe) {
  const std::vector<double> x = uniform_samples(-50.0, 50.0, 4096, 7);
  std::vector<double> out(x.size());
  std::vector<double> aliased = x;
  vexpm1(x.data(), out.data(), x.size());
  vexpm1(aliased.data(), aliased.data(), aliased.size());
  EXPECT_EQ(out, aliased) << "vexpm1";

  aliased = x;
  vexp_neg_mul(0.01, x.data(), out.data(), x.size());
  vexp_neg_mul(0.01, aliased.data(), aliased.data(), aliased.size());
  EXPECT_EQ(out, aliased) << "vexp_neg_mul";
}

}  // namespace
}  // namespace fpsched
