#include "core/math_kernels.hpp"

#include <cmath>

namespace fpsched {

void vexpm1(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::expm1(x[i]);
}

void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(-lambda * x[i]);
}

}  // namespace fpsched
