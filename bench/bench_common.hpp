// Shared CLI harness for the registry-driven binaries (fpsched_run,
// fpsched_merge, the ablation bench) — a thin adapter over the
// experiment registry in src/engine/.
//
// Every figure is registered declaratively in the engine
// (engine::ExperimentRegistry::global()) and runs through
// `fpsched_run <name>`. parse_figure_options maps the shared CLI onto
// engine::FigureOptions: `--quick` shrinks the grid for smoke runs; the
// default reproduces the paper's full grid (sizes 50-700, exhaustive
// N-sweep). `--threads` sizes the engine (0 = all cores); results are
// identical for any thread count.
#pragma once

#include <optional>

#include "engine/experiment.hpp"
#include "support/cli.hpp"
#include "workflows/generator.hpp"

namespace fpsched::bench {

using engine::FigureOptions;
using engine::PanelSpec;

/// Registers the sweep-figure extras (`--tasks`, `--downtimes`) that
/// fig7/downtime consume and the other figures ignore; call it before
/// parse_figure_options so every registry-driven binary exposes the same
/// CLI.
void add_sweep_options(CliParser& cli);

/// Registers `--trials` (Monte-Carlo trials per simulated cell, consumed
/// by the robustness experiment).
void add_trial_options(CliParser& cli);

/// Registers the shared options on `cli`, parses, and converts. Returns
/// nullopt when --help was requested. Rejects malformed values
/// (e.g. --stride 0) with a clear error; creates the --csv directory when
/// it does not exist yet (rejecting paths that exist as non-directories).
/// Reads `--tasks` / `--downtimes` only when the binary registered them
/// (add_sweep_options, or its own option of the same name).
std::optional<FigureOptions> parse_figure_options(CliParser& cli, int argc, const char* const* argv);

/// Generates the paper's workflow instance for a size (cost model
/// applied). tests/engine_test.cpp replicates this convention (seed +
/// size) as its serial reference, so the engine stays pinned to it.
TaskGraph make_instance(WorkflowKind kind, std::size_t size, const CostModel& cost_model,
                        const FigureOptions& options);

}  // namespace fpsched::bench
