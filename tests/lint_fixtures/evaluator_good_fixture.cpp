// Known-good fixture for tools/lint_determinism.py --self-test: every
// construct here must scan clean — kernel-routed sweeps, seeded RNG
// idiom, ordered containers, and justified suppressions. NOT compiled.
#include <cmath>
#include <map>
#include <vector>

namespace fpsched {
void vexpm1(const double* x, double* out, unsigned n);
double exp_port(double x);
}

// Batched kernel sweep: the blessed way to take exp/expm1 in a pass.
void good_pass(std::vector<double>& staged) {
  fpsched::vexpm1(staged.data(), staged.data(), static_cast<unsigned>(staged.size()));
}

// The port's scalar entry point, and names that merely start with exp.
double good_scalar(double x) {
  const double exp_core = fpsched::exp_port(x);
  return exp_core + expected_value(x);
}

// Ordered containers iterate deterministically.
double good_accumulate(const std::map<int, double>& cells) {
  double total = 0.0;
  for (const auto& [key, value] : cells) total += value;
  return total;
}

// Identifiers merely containing the pattern words must not trip the
// rules: expm1_wc is a buffer name, expected/exported are plain words.
struct Workspace {
  std::vector<double> expm1_wc;
  double expected = 0.0;
  bool exported = false;
};

// A justified suppression is accepted (same-line form) ...
double good_suppressed_tail(double x) {
  return std::exp(x);  // determinism-ok: serial tail outside the batched pass sweeps
}

// ... and the preceding-line form too.
double good_suppressed_above(double x) {
  // determinism-ok: reference implementation, intentionally direct libm
  return std::exp(x);
}
