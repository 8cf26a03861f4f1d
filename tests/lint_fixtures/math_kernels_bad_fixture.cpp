// Known-bad fixture for tools/lint_determinism.py --self-test: the raw-exp
// rule covers the math kernels themselves, so the port cannot fall back
// to libm. NOT compiled. Lines carrying an EXPECT marker must produce
// exactly that finding; the others must stay clean.
#include <cmath>

namespace fpsched {

double exp_port(double x) { return std::exp(x); }  // EXPECT[raw-exp]

void vexpm1(const double* x, double* out, unsigned n) {
  for (unsigned i = 0; i < n; ++i) out[i] = expm1(x[i]);  // EXPECT[raw-exp]
}

double expm1_core(double x) { return x; }

}  // namespace fpsched
