#include "support/rng.hpp"

#include <cmath>

#include "support/error.hpp"

namespace fpsched {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Hash the current state together with the stream id; children of the
  // same parent with distinct ids get well-separated seeds.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^ (stream_id * 0xd1342543de82ef95ull + 1);
  return Rng(splitmix64(s));
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ensure(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ensure(n > 0, "uniform_index requires n > 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double lambda) {
  ensure(lambda > 0.0, "exponential requires lambda > 0");
  // -log(1-U) with U in [0,1) keeps the argument strictly positive.
  return -std::log1p(-uniform()) / lambda;
}

double Rng::normal() {
  for (;;) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) return u * std::sqrt(-2.0 * std::log(s) / s);
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::gamma(double shape, double scale) {
  // Finite too: an infinite scale draws inf, or NaN (inf * 0) below
  // shape 1, and an infinite shape never leaves the rejection loop.
  ensure(shape > 0.0 && scale > 0.0 && std::isfinite(shape) && std::isfinite(scale),
         "gamma requires a finite, positive shape and scale");
  if (shape < 1.0) {
    // Boost to shape+1 and correct with U^{1/shape} (Marsaglia–Tsang).
    const double u = std::max(uniform(), 1e-300);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = std::max(uniform(), 1e-300);
    if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v)) return d * v * scale;
  }
}

double Rng::gamma_mean_cv(double mean, double cv) {
  ensure(mean > 0.0 && cv >= 0.0, "gamma_mean_cv requires mean > 0 and cv >= 0");
  if (cv == 0.0) return mean;
  const double shape = 1.0 / (cv * cv);
  const double scale = mean / shape;
  return gamma(shape, scale);
}

}  // namespace fpsched
