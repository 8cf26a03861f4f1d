// The experiment options and the one table that parses them: every
// FigureOptions field a client may set is a row with its name, help text,
// and parse with its range check. The CLI (`--weight-cv`) and the HTTP
// service (`weight_cv`) both read values through it, and run_experiment
// and JobManager::submit run its checks, so a value means the same thing,
// and fails the same way, wherever it comes from.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"

namespace fpsched {
class CliParser;
}

namespace fpsched::engine {

/// The knobs every figure builder consumes. Each field but `threads` is a
/// row of figure_option_table(); `threads` sizes the engine of the
/// process that runs the plan, a resource no request may set, which only
/// the binaries that run an engine take as `--threads`.
struct FigureOptions {
  std::vector<std::size_t> sizes{50, 100, 200, 300, 400, 500, 600, 700};
  std::size_t stride = 1;   // N-sweep stride (1 = exhaustive, as the paper)
  std::uint64_t seed = 42;  // workflow generation seed
  double weight_cv = 0.2;
  std::size_t threads = 0;  // engine workers; 0 = all cores (or FPSCHED_THREADS)
  EvalMath eval_math = EvalMath::exact;  // see evaluator.hpp
  /// Fixed workflow size of the sweep figures (fig7, downtime, robustness).
  std::size_t tasks = 200;
  std::vector<double> downtimes{0, 60, 300, 900, 3600};  // seconds (downtime sweep)
  std::size_t trials = 20000;  // Monte-Carlo trials per simulated cell (robustness)
};

/// One option a client may set.
struct FigureOption {
  std::string_view name;  // the HTTP key; the CLI spells it `--` + cli_name()
  std::string_view help;
  /// Set by presence on the CLI: `quick`, the last row, so that its
  /// shrink overrides an explicit grid.
  bool flag = false;
  /// Reads `text` into the row's field; throws InvalidArgument naming
  /// `what` when the text is malformed or its value out of range.
  void (*parse)(FigureOptions& options, std::string_view text, const std::string& what);
  /// The field as text that `parse` reads back (the CLI's default).
  std::string (*show)(const FigureOptions& options);

  std::string cli_name() const;  // `name` with '-' for '_': "weight-cv"
  std::string label() const;     // how errors name it: "option weight_cv (--weight-cv)"
};

/// The rows, in the order they apply.
std::span<const FigureOption> figure_option_table();

/// Throws InvalidArgument naming the first option out of range: the check
/// for options built in code.
void check_figure_options(const FigureOptions& options);

/// `values`, keyed by row name, parsed over FigureOptions{} in table
/// order. Throws InvalidArgument on an unknown key or a bad value.
FigureOptions read_figure_options(const std::map<std::string, std::string>& values);

/// Registers every row on `cli`, showing FigureOptions{}'s values as the
/// defaults. A binary that builds an engine from the options registers
/// and reads `--threads` itself.
void add_figure_options(CliParser& cli);

/// What a `cli` prepared by add_figure_options parsed: every row through
/// read_figure_options (`threads` keeps its default).
FigureOptions read_figure_options(const CliParser& cli);

/// The `--quick` shrink: small size grid, sweep stride raised to at
/// least 4.
void apply_quick_options(FigureOptions& options);

}  // namespace fpsched::engine
