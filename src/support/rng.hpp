// Deterministic random number generation for simulations and generators.
//
// The engine is xoshiro256** (Blackman & Vigna), seeded through SplitMix64.
// It satisfies std::uniform_random_bit_generator, is cheap to copy, and
// supports deterministic sub-stream derivation (`fork`) so that parallel
// workers draw from independent, reproducible streams.
#pragma once

#include <cstdint>
#include <vector>

namespace fpsched {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Raw 64 random bits.
  result_type operator()();

  /// Derives an independent, reproducible stream for worker `stream_id`.
  Rng fork(std::uint64_t stream_id) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with rate `lambda` (> 0); mean 1/lambda.
  double exponential(double lambda);

  /// Gamma(shape k > 0, scale theta > 0), both finite, via
  /// Marsaglia–Tsang; throws InvalidArgument otherwise.
  double gamma(double shape, double scale);

  /// Standard normal via polar Box–Muller (stateless variant, no caching).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Gamma distribution parameterized by mean and coefficient of variation
  /// (stddev / mean); useful to synthesize task weights around a target
  /// mean. `cv = 0` returns the mean deterministically. Throws when the
  /// gamma's shape 1/cv^2 or scale mean*cv^2 is not finite.
  double gamma_mean_cv(double mean, double cv);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  std::uint64_t state_[4];
};

}  // namespace fpsched
