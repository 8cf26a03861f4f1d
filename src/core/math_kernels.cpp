#include "core/math_kernels.hpp"

#include <bit>
#include <cmath>

#include "support/error.hpp"

namespace fpsched {

std::string to_string(EvalMath math) { return math == EvalMath::exact ? "exact" : "fast"; }

EvalMath parse_eval_math(const std::string& text) {
  if (text == "exact") return EvalMath::exact;
  if (text == "fast") return EvalMath::fast;
  throw InvalidArgument("eval-math must be 'exact' or 'fast', got '" + text + "'");
}

namespace {

// --- Fast-backend scalar core (inlined into the sweeps below). ----------
//
// exp(x) = 2^k * exp(r) with k = round(x / ln 2), |r| <= ln2 / 2:
//  * k is produced by the round-to-nearest "magic number" trick — adding
//    1.5 * 2^52 forces the rounding in the FP adder and leaves k in the
//    low mantissa bits, with no float->int cast whose overflow/NaN
//    behaviour would be undefined;
//  * r = (x - k * ln2_hi) - k * ln2_lo (Cody–Waite): ln2_hi has 20
//    trailing zero bits, so k * ln2_hi is exact for |k| <= 2^20 and the
//    subtraction cancels without error;
//  * exp(r) = 1 + r + r^2 * Q(r) with Q the Taylor tail 1/2! .. 1/14!
//    (truncation < 1e-19 on the reduced range);
//  * 2^k is applied as two exact power-of-two factors 2^(k/2) * 2^(k-k/2)
//    built by bit assembly, so k down to -1074 - 52 (denormal results)
//    and up to +1025 (overflow to inf) need no special casing.
// Inputs are clamped to [-746, 710] first — outside, exp is exactly 0 or
// inf, which the scaling then produces; NaN fails both clamp compares and
// flows through the polynomial unchanged.

constexpr double kLog2e = 1.4426950408889634074;       // 1 / ln 2
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3FE62E42FEE00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // ln 2 - kLn2Hi
constexpr double kRoundMagic = 6755399441055744.0;     // 1.5 * 2^52
constexpr double kExpArgMax = 710.0;   // exp overflows beyond ~709.78
constexpr double kExpArgMin = -746.0;  // exp underflows below ~-745.13
// expm1 switches from the direct series to exp(x) - 1 at |x| = ln 2; at
// the threshold the relative-error amplification of the subtraction,
// e^x / (e^x - 1), is exactly 2, keeping the combined bound under 4 ulp.
constexpr double kExpm1Switch = 0.693147180559945286;

/// Taylor tail Q(r) = 1/2! + r/3! + ... + r^12/14!, accurate enough for
/// the reduced range |r| <= ln2/2 (next term r^13/15! < 1e-19 there), so
/// that exp(r) = 1 + r + r^2 * Q(r).
inline double tail_q14(double r) {
  double q = 1.0 / 87178291200.0;  // 1/14!
  q = q * r + 1.0 / 6227020800.0;
  q = q * r + 1.0 / 479001600.0;
  q = q * r + 1.0 / 39916800.0;
  q = q * r + 1.0 / 3628800.0;
  q = q * r + 1.0 / 362880.0;
  q = q * r + 1.0 / 40320.0;
  q = q * r + 1.0 / 5040.0;
  q = q * r + 1.0 / 720.0;
  q = q * r + 1.0 / 120.0;
  q = q * r + 1.0 / 24.0;
  q = q * r + 1.0 / 6.0;
  q = q * r + 1.0 / 2.0;
  return q;
}

/// The same tail extended to 1/16!, valid on the wider |x| < ln 2 range
/// of expm1's direct-series path (next term x^15/17! * x^2 < 6e-18 at the
/// threshold, i.e. < 0.03 ulp of expm1(ln 2)).
inline double tail_q16(double x) {
  double q = 1.0 / 20922789888000.0;  // 1/16!
  q = q * x + 1.0 / 1307674368000.0;
  q = q * x + 1.0 / 87178291200.0;
  q = q * x + 1.0 / 6227020800.0;
  q = q * x + 1.0 / 479001600.0;
  q = q * x + 1.0 / 39916800.0;
  q = q * x + 1.0 / 3628800.0;
  q = q * x + 1.0 / 362880.0;
  q = q * x + 1.0 / 40320.0;
  q = q * x + 1.0 / 5040.0;
  q = q * x + 1.0 / 720.0;
  q = q * x + 1.0 / 120.0;
  q = q * x + 1.0 / 24.0;
  q = q * x + 1.0 / 6.0;
  q = q * x + 1.0 / 2.0;
  return q;
}

struct Reduced {
  double r;   // reduced argument, |r| <= ln2/2 (+ rounding)
  double s1;  // 2^(k/2), exact power of two
  double s2;  // 2^(k - k/2)
};

inline Reduced reduce(double x) {
  double xc = x > kExpArgMax ? kExpArgMax : x;
  xc = xc < kExpArgMin ? kExpArgMin : xc;
  const double kd = xc * kLog2e + kRoundMagic;
  const double kn = kd - kRoundMagic;
  // k sits in the low mantissa bits of kd, offset by the 2^51 part of the
  // magic constant. All bit assembly is on unsigned/defined-behaviour
  // operations; a NaN input yields an arbitrary (but harmless) scale, and
  // the polynomial's NaN wins in the final product.
  const std::int64_t ki =
      static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(kd) & 0xFFFFFFFFFFFFFULL) -
      (std::int64_t{1} << 51);
  const std::int64_t e1 = ki >> 1;  // floor(k / 2); C++20 defines the shift
  const std::int64_t e2 = ki - e1;
  Reduced out;
  out.r = (xc - kn * kLn2Hi) - kn * kLn2Lo;
  out.s1 = std::bit_cast<double>(static_cast<std::uint64_t>(e1 + 1023) << 52);
  out.s2 = std::bit_cast<double>(static_cast<std::uint64_t>(e2 + 1023) << 52);
  return out;
}

inline double exp_fast(double x) {
  const Reduced red = reduce(x);
  const double pm1 = red.r + (red.r * red.r) * tail_q14(red.r);
  return ((1.0 + pm1) * red.s1) * red.s2;
}

inline double expm1_fast(double x) {
  // Large path: e^x - 1 = s1 * (s2 * (pm1 + 1)) - 1. Grouping the scale
  // factors around the +1 keeps every intermediate finite until the last
  // multiply, so overflow saturates to inf and deep-negative x lands
  // exactly on -1.
  const Reduced red = reduce(x);
  const double pm1 = red.r + (red.r * red.r) * tail_q14(red.r);
  const double big = (pm1 * red.s2 + red.s2) * red.s1 - 1.0;
  // Small path (|x| < ln 2): the same series evaluated at x directly — no
  // reduction error, and the leading x term is exact, which is what kills
  // the cancellation of exp(x) - 1 near zero.
  const double small = x + (x * x) * tail_q16(x);
  return (x < kExpm1Switch) & (x > -kExpm1Switch) ? small : big;
}

// The sweeps are compiled twice on x86-64 ELF/GCC: a baseline (SSE2)
// clone and an x86-64-v3 (AVX2 + FMA) clone, dispatched once per process
// by the loader's ifunc resolver. The polynomial recurrence is latency
// bound without FMA, so the v3 clone is where the batched form pays off;
// the attribute degrades to the baseline build everywhere else. Note the
// clones may differ in the low bits between themselves (FMA contraction),
// so fast-mode output is deterministic per host/build, not across CPU
// generations (fast_math_variant() names the clone a host runs) — the
// exact backend remains the cross-host byte contract.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && !defined(__clang__)
#define FPSCHED_MATH_CLONES __attribute__((target_clones("default", "arch=x86-64-v3")))
#define FPSCHED_HAS_MATH_CLONES 1
#else
#define FPSCHED_MATH_CLONES
#define FPSCHED_HAS_MATH_CLONES 0
#endif

FPSCHED_MATH_CLONES
void sweep_exp_fast(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_fast(x[i]);
}

FPSCHED_MATH_CLONES
void sweep_expm1_fast(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = expm1_fast(x[i]);
}

FPSCHED_MATH_CLONES
void sweep_exp_neg_mul_fast(double lambda, const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_fast(-lambda * x[i]);
}

}  // namespace

std::string_view fast_math_variant() {
#if FPSCHED_HAS_MATH_CLONES
  // The predicate the "arch=x86-64-v3" clone's resolver dispatches on.
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v3") ? "x86-64-v3" : "default";
#else
  return "default";
#endif
}

void vexp(const double* x, double* out, std::size_t n, EvalMath math) {
  if (math == EvalMath::exact) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
  } else {
    sweep_exp_fast(x, out, n);
  }
}

void vexpm1(const double* x, double* out, std::size_t n, EvalMath math) {
  if (math == EvalMath::exact) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::expm1(x[i]);
  } else {
    sweep_expm1_fast(x, out, n);
  }
}

void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n, EvalMath math) {
  if (math == EvalMath::exact) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(-lambda * x[i]);
  } else {
    sweep_exp_neg_mul_fast(lambda, x, out, n);
  }
}

}  // namespace fpsched
