// Batched exp/expm1 kernels for the Theorem-3 evaluator hot loop.
//
// The evaluator's O(n^2) accumulation spends ~90% of figure wall-clock in
// scalar libm transcendentals (PR 2 profile). This layer batches those
// calls into stride-free array sweeps with two interchangeable backends:
//
//  * EvalMath::exact — element-wise std::exp / std::expm1. Bit-identical
//    to calling libm inline at every site, and therefore bit-identical to
//    the pre-kernel evaluator. The default everywhere.
//  * EvalMath::fast — a dependency-free, hand-rolled implementation
//    (sleef-style): Cody–Waite range reduction against log 2 split into a
//    high part with 20 trailing zero bits (so the product with the
//    reduction integer is exact) plus a low correction, Horner-evaluated
//    Taylor tails sized to their ranges, and branch-free two-factor
//    2^k scaling so denormal and overflowing results come out right
//    without any per-element control flow. Accuracy contract: <= 4 ulp
//    against libm on every input regime (measured ~2 ulp; see
//    tests/math_kernels_test.cpp), with exp(+-inf), expm1(-inf) == -1,
//    NaN propagation and the under/overflow edges all handled. The loops
//    carry no branches or strided accesses, so -O3 can vectorize them.
//
// The fast backend is an explicit opt-in threaded through the whole stack
// (the evaluator's `math` argument <- SweepOptions::eval <- the engine
// run's math argument <- FigureOptions::eval_math <- CLI --eval-math /
// HTTP eval_math); nothing selects it implicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fpsched {

/// Which transcendental backend an evaluation uses.
enum class EvalMath : std::uint8_t {
  exact,  ///< libm element-wise; bit-identical to the historical output.
  fast,   ///< batched polynomial kernels, <= 4 ulp of libm.
};

std::string to_string(EvalMath math);

/// Parses "exact" / "fast"; throws InvalidArgument otherwise.
EvalMath parse_eval_math(const std::string& text);

/// out[i] = exp(x[i]). In-place safe (out may alias x).
void vexp(const double* x, double* out, std::size_t n, EvalMath math = EvalMath::exact);

/// out[i] = expm1(x[i]). In-place safe.
void vexpm1(const double* x, double* out, std::size_t n, EvalMath math = EvalMath::exact);

/// out[i] = exp(-lambda * x[i]) — the evaluator's probability-decay
/// pattern, fused so the exact backend reproduces the historical
/// `std::exp(-lambda * span)` expression bit-for-bit. In-place safe.
void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n,
                  EvalMath math = EvalMath::exact);

/// The code path the fast backend's sweeps dispatch to on this host:
/// "x86-64-v3" or "default" where they are compiled as target clones
/// (x86-64 ELF under GCC, decided by the clone resolver's own predicate),
/// "default" elsewhere. Clones may differ in the low bits, so anything
/// that stores fast-backend output by its inputs (the service's result
/// cache) must key on this too.
std::string_view fast_math_variant();

}  // namespace fpsched
