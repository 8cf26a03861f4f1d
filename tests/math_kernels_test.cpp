// Contract tests for the repository's own exp and expm1 and the sweeps
// the evaluator takes its transcendentals through: every compiled body
// gives pinned bits (the byte-determinism contract of every run, on every
// host), the bodies agree with each other, they equal glibc's FMA variants
// wherever the host's libm is one, and the sweeps are safe in place.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/math_kernels.hpp"

namespace fpsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Uniform doubles in [lo, hi) from the raw output of mt19937_64, whose
/// sequence the standard fixes: a pinned digest must see the same inputs
/// with every standard library.
std::vector<double> uniform_samples(double lo, double hi, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> samples(count);
  for (double& x : samples) x = lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  return samples;
}

/// Magnitudes spread log-uniformly over [2^-60, 2^0), both signs.
std::vector<double> tiny_samples(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> samples(count);
  for (double& x : samples) {
    const std::uint64_t r = rng();
    const double mantissa = 1.0 + static_cast<double>(r >> 11) * 0x1p-53;
    x = std::ldexp(mantissa, -static_cast<int>(r % 61));
    if ((r >> 6) & 1) x = -x;
  }
  return samples;
}

/// ±0, subnormals, the extreme normals, the overflow and underflow
/// thresholds of exp and expm1, ±inf and NaN.
std::vector<double> special_values() {
  const std::vector<double> magnitudes = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      0x1.8p-1060,
      0x0.fffffffffffffp-1022,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      0x1p-54,
      0x1.fffffffffffffp-55,
      512.0,
      1024.0,
      709.782712893384,
      708.39641853226408,
      745.13321910194110,
      56 * 0.6931471805599453,
      kInf,
  };
  std::vector<double> values;
  for (const double m : magnitudes) {
    values.push_back(m);
    values.push_back(-m);
  }
  values.push_back(kNaN);
  return values;
}

/// FNV-1a over result bits; every NaN counts as one pattern (its payload
/// is the hardware's business, and no record can hold one).
class Digest {
 public:
  void add(double value) {
    const std::uint64_t word = std::isnan(value) ? 0x7ff8000000000000 : bits(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325;
};

/// The digest of one body over 10^6 seeded inputs in the evaluator's ranges:
/// exp of -lambda S in [-745, 0] (scalar and swept, as the passes take it)
/// and of the combine's lambda L in [0, 710]; expm1 of [0, 710] and of
/// tiny arguments; and both functions on the special values.
std::uint64_t body_digest(const MathKernelBody& body) {
  Digest digest;
  const std::vector<double> spans = uniform_samples(0.0, 745.0, 400000, 11);
  for (const double s : spans) digest.add(body.scalar_exp(-s));
  std::vector<double> swept(spans.size());
  body.sweep_exp_neg_mul(1.0, spans.data(), swept.data(), spans.size());
  for (const double q : swept) digest.add(q);
  for (const double x : uniform_samples(0.0, 710.0, 200000, 12)) digest.add(body.scalar_exp(x));

  std::vector<double> args = uniform_samples(0.0, 710.0, 200000, 13);
  const std::vector<double> tiny = tiny_samples(200000, 14);
  args.insert(args.end(), tiny.begin(), tiny.end());
  for (const double x : args) digest.add(body.scalar_expm1(x));
  body.sweep_expm1(args.data(), args.data(), args.size());
  for (const double y : args) digest.add(y);

  const std::vector<double> special = special_values();
  for (const double x : special) {
    digest.add(body.scalar_exp(x));
    digest.add(body.scalar_expm1(x));
  }
  body.sweep_exp_neg_mul(1.0, special.data(), swept.data(), special.size());
  for (std::size_t i = 0; i < special.size(); ++i) digest.add(swept[i]);
  return digest.value();
}

std::string hex(std::uint64_t value) {
  char text[19] = {};
  std::snprintf(text, sizeof text, "0x%016llx", static_cast<unsigned long long>(value));
  return text;
}

TEST(MathKernels, PinnedDigest) {
  // Recorded from the port, which equals glibc 2.36's FMA variants bit for
  // bit. Every body on every host must reproduce it; a deliberate change
  // of the output reprints it below.
  constexpr std::uint64_t kPinned = 0xd9a425d22f4cac46;
  EXPECT_EQ(hex(body_digest(portable_math_kernels())), hex(kPinned)) << "portable body";
  if (const MathKernelBody* vector = avx2_fma_math_kernels()) {
    EXPECT_EQ(hex(body_digest(*vector)), hex(kPinned)) << "avx2_fma body";
  }
}

TEST(MathKernels, MatchesHostLibmWhenItIsTheFmaVariant) {
  // glibc picks a variant of exp and expm1 per CPU at load time, and its
  // FMA variants round differently from its generic ones on these inputs.
  // volatile keeps the compiler from folding the calls at build time.
  volatile double exp_sentinel = -0x1.2b97133f8336ep+3;
  volatile double expm1_sentinel = 0x1.c64e2d65c7a2ep+0;
  const std::uint64_t exp_bits = bits(std::exp(exp_sentinel));
  const std::uint64_t expm1_bits = bits(std::expm1(expm1_sentinel));
  if (exp_bits != 0x3f16856de798a9c7 || expm1_bits != 0x401397a7b8c05c4c) {
    GTEST_SKIP() << "the host's libm is not glibc's FMA variant: exp sentinel " << hex(exp_bits)
                 << ", expm1 sentinel " << hex(expm1_bits);
  }
  std::vector<double> x = uniform_samples(-745.2, 709.8, 600000, 21);
  const std::vector<double> tiny = tiny_samples(200000, 22);
  const std::vector<double> near_zero = uniform_samples(-2.0, 2.0, 200000, 23);
  const std::vector<double> special = special_values();
  x.insert(x.end(), tiny.begin(), tiny.end());
  x.insert(x.end(), near_zero.begin(), near_zero.end());
  x.insert(x.end(), special.begin(), special.end());
  std::vector<double> swept(x.size());
  vexp_neg_mul(-1.0, x.data(), swept.data(), x.size());  // -(-1) * x is x exactly
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = std::exp(x[i]);
    ASSERT_EQ(bits(exp_port(x[i])), bits(want)) << "exp(" << hex(bits(x[i])) << ")";
    ASSERT_EQ(bits(swept[i]), bits(want)) << "swept exp(" << hex(bits(x[i])) << ")";
    ASSERT_EQ(bits(expm1_port(x[i])), bits(std::expm1(x[i])))
        << "expm1(" << hex(bits(x[i])) << ")";
  }
}

TEST(MathKernels, VectorBodyEqualsPortableBody) {
  const MathKernelBody* vector = avx2_fma_math_kernels();
  if (vector == nullptr) GTEST_SKIP() << "this CPU lacks AVX2 or FMA: only the portable body runs";
  const MathKernelBody& portable = portable_math_kernels();
  const auto expect_same = [](const std::vector<double>& want, const std::vector<double>& got,
                              const std::string& what) {
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i])) << what << " at " << i << ": " << hex(bits(got[i]))
                                             << " instead of " << hex(bits(want[i]));
    }
  };
  // Each sweep of the portable body against the vector body, out of place
  // and in place.
  const auto check = [&](double lambda, const std::vector<double>& x, const std::string& what) {
    std::vector<double> want(x.size());
    std::vector<double> got(x.size());
    portable.sweep_exp_neg_mul(lambda, x.data(), want.data(), x.size());
    vector->sweep_exp_neg_mul(lambda, x.data(), got.data(), x.size());
    expect_same(want, got, "exp_neg_mul " + what);
    std::vector<double> in_place = x;
    vector->sweep_exp_neg_mul(lambda, in_place.data(), in_place.data(), in_place.size());
    expect_same(want, in_place, "in-place exp_neg_mul " + what);

    portable.sweep_expm1(x.data(), want.data(), x.size());
    vector->sweep_expm1(x.data(), got.data(), x.size());
    expect_same(want, got, "expm1 " + what);
    in_place = x;
    vector->sweep_expm1(in_place.data(), in_place.data(), in_place.size());
    expect_same(want, in_place, "in-place expm1 " + what);
  };
  // Arguments -lambda x of -0, |.| >= 512, ±inf and NaN at every lane
  // position of every short length, amid ordinary arguments.
  const double lambda = 0.5;
  const std::vector<double> specials = {0.0, 1100.0, -1100.0, 2000.0, -3000.0, kInf, -kInf, kNaN};
  for (std::size_t length = 0; length <= 17; ++length) {
    const std::vector<double> base = uniform_samples(-100.0, 1500.0, length, 31 + length);
    check(lambda, base, "length " + std::to_string(length));
    for (std::size_t position = 0; position < length; ++position) {
      for (const double special : specials) {
        std::vector<double> x = base;
        x[position] = special;
        check(lambda, x,
              "length " + std::to_string(length) + " position " + std::to_string(position) +
                  " x " + std::to_string(special));
      }
    }
  }
  // Random lengths, across the sweep's blocks, with specials sprinkled in.
  std::mt19937_64 rng(41);
  for (int round = 0; round < 40; ++round) {
    std::vector<double> x = uniform_samples(-200.0, 1500.0, rng() % 1200, 42 + round);
    for (double& value : x) {
      if (rng() % 16 == 0) value = specials[rng() % specials.size()];
    }
    check(lambda, x, "round " + std::to_string(round));
  }
  // The scalar entry points.
  std::vector<double> x = uniform_samples(-745.2, 709.8, 200000, 51);
  const std::vector<double> special = special_values();
  x.insert(x.end(), special.begin(), special.end());
  for (const double value : x) {
    ASSERT_EQ(bits(vector->scalar_exp(value)), bits(portable.scalar_exp(value)))
        << "exp(" << hex(bits(value)) << ")";
    ASSERT_EQ(bits(vector->scalar_expm1(value)), bits(portable.scalar_expm1(value)))
        << "expm1(" << hex(bits(value)) << ")";
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
