// Known-bad fixture for tools/lint_determinism.py --self-test.
//
// NOT compiled, NOT linked: this file exists so the lint's rules are
// themselves regression-tested. Every line carrying an EXPECT marker
// (rule id in square brackets) must produce exactly that finding; lines
// without a marker must stay clean. The file name starts with
// "evaluator" on purpose so the raw-exp rule (scoped to the record path:
// evaluator and math_kernels files) applies.
#include <cmath>
#include <cstdlib>
#include <random>
#include <unordered_map>

double bad_accumulate() {
  std::unordered_map<int, double> cells;  // EXPECT[unordered-iteration]
  double total = 0.0;
  for (const auto& [key, value] : cells) total += value;
  return total;
}

unsigned bad_seed() {
  std::random_device entropy;  // EXPECT[raw-rng]
  srand(entropy());            // EXPECT[raw-rng]
  const auto stamp = time(nullptr);  // EXPECT[raw-rng]
  return static_cast<unsigned>(std::rand() + stamp);  // EXPECT[raw-rng]
}

double bad_pass(const double* args, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::exp(args[i]);  // EXPECT[raw-exp]
  return acc + expm1(acc);  // EXPECT[raw-exp]
}

// Every other libm spelling, called or named.
double bad_spellings(double x) {
  double acc = ::exp(x);            // EXPECT[raw-exp]
  acc += __builtin_expm1(x);        // EXPECT[raw-exp]
  acc += std::expl(x) + expm1f(x);  // EXPECT[raw-exp]
  double (*decay)(double) = std::exp;  // EXPECT[raw-exp]
  return acc + decay(x);
}

double bare_suppression(double x) {
  // A suppression with no justification is itself a finding. EXPECT-NEXT[raw-exp]
  return std::exp(x);  // determinism-ok:
}
