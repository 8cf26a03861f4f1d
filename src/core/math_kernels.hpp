// The repository's own exp and expm1, and the batched sweeps the
// Theorem-3 evaluator takes its transcendentals through.
//
// exp_port and expm1_port are bit-for-bit ports of glibc 2.36's FMA
// variants of exp (Arm's optimized-routines algorithm) and expm1
// (fdlibm's), with a fused multiply-add at exactly the sites that variant
// fuses. The evaluator's records are therefore the same bytes on every
// host:
//  * the port is self-contained: no libm routine is called, so neither
//    the host's libm version nor the variant it picks for the CPU can
//    move a bit;
//  * each fused multiply-add rounds correctly everywhere: it is the FMA
//    instruction where the code's target has one, and an exact software
//    emulation elsewhere, so a host without FMA hardware computes the
//    same doubles and pays for the emulation (about four times libm's
//    exp there);
//  * the build uses -ffp-contract=off, so the compiler fuses nothing
//    beyond the explicit fused multiply-adds, whatever -m flags it is
//    given.
//
// The code is written once and compiled twice: a portable body, and an
// AVX2+FMA body in which GCC vectorizes the exp sweep lane by lane (each
// lane does the same IEEE operations as the scalar code). The body is
// picked once, at start-up, from the CPU; both give the same bits, and
// the fpsched_eval_exp_kernel_info metric names the one that runs.
//
// tools/lint_determinism.py keeps every libm exp/expm1 spelling off the
// record path (the evaluator pass files and this module).
#pragma once

#include <cstddef>

namespace fpsched {

/// exp(x), bit-identical to glibc 2.36's FMA variant for every input.
double exp_port(double x);

/// expm1(x), bit-identical to glibc 2.36's FMA variant for every input.
double expm1_port(double x);

/// out[i] = expm1_port(x[i]). In-place safe (out may alias x).
void vexpm1(const double* x, double* out, std::size_t n);

/// out[i] = exp_port(-lambda * x[i]): the evaluator's probability-decay
/// pattern, in the historical `exp(-lambda * span)` argument shape. In-place
/// safe.
void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n);

/// One compiled body of the functions above; every body returns the same
/// bits. Exposed so that tests can compare the bodies with each other.
struct MathKernelBody {
  const char* name;  ///< "portable" or "avx2_fma"
  double (*scalar_exp)(double);
  double (*scalar_expm1)(double);
  void (*sweep_expm1)(const double* x, double* out, std::size_t n);
  void (*sweep_exp_neg_mul)(double lambda, const double* x, double* out, std::size_t n);
};

/// The body built for the baseline instruction set; runs on every CPU.
const MathKernelBody& portable_math_kernels();

/// The AVX2+FMA body, or null when this CPU (or this build's target)
/// lacks AVX2 or FMA. The functions above run it whenever it exists.
const MathKernelBody* avx2_fma_math_kernels();

}  // namespace fpsched
