// Batched exp/expm1 sweeps for the Theorem-3 evaluator hot loop.
//
// The evaluator stages the arguments of its transcendentals into
// contiguous buffers and hands them here in one sweep each, instead of
// calling libm inline at every site (tools/lint_determinism.py enforces
// this for the evaluator pass files). The sweeps call std::exp /
// std::expm1 element-wise in the evaluator's historical expression
// shapes, so they are bit-identical to the inline calls and the output is
// the same on every host. Both evaluator algorithms (EvalMath in
// evaluator.hpp) run on them; `fast` simply issues fewer calls.
#pragma once

#include <cstddef>

namespace fpsched {

/// out[i] = expm1(x[i]). In-place safe (out may alias x).
void vexpm1(const double* x, double* out, std::size_t n);

/// out[i] = exp(-lambda * x[i]) — the evaluator's probability-decay
/// pattern, fused so it reproduces the historical
/// `std::exp(-lambda * span)` expression bit-for-bit. In-place safe.
void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n);

}  // namespace fpsched
