// First-class experiments: the declarative registry behind fpsched_run
// and the HTTP service.
//
// The paper's evaluation is one big scenario grid, but the repo used to
// expose it as ten near-identical figure binaries hand-wiring PanelSpecs.
// This header turns each figure/study into data: an Experiment owns a
// name, a one-line summary, and a builder that maps shared FigureOptions
// to a FigurePlan (heading + panels + closing notes). The
// ExperimentRegistry resolves names ("fig2", "downtime") to experiments;
// run_experiment() executes a plan through the engine and streams it
// through any stack of ResultSinks — including, via ShardSpec, a
// deterministic 1/N slice of the flattened scenario list so N processes'
// record streams concatenate to the bit-identical unsharded output.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/options.hpp"
#include "engine/result_sink.hpp"
#include "engine/scenario.hpp"

namespace fpsched::engine {

/// One declared figure panel: its scenario grid plus presentation.
struct PanelSpec {
  ScenarioGrid grid;
  std::string title;  // e.g. "CyberShake: lambda=0.001, c=0.1w  [paper fig. 2a]"
  std::string slug;   // stable file stem, e.g. "fig2a_cybershake"
};

/// A built experiment, ready to run: the text frame plus the panels.
struct FigurePlan {
  /// First stdout line of the run ("Figure 2 — impact of ...").
  std::string heading;
  std::vector<PanelSpec> panels;
  /// Printed verbatim after the panels (own its newlines; may be empty).
  std::string notes;
};

/// A registered experiment: everything fpsched_run needs to list and run
/// a figure or study by name. The builder carries every option it honors
/// into its grids (and so into each ScenarioSpec): options reach the
/// engine, the records and the cache keys only through the plan.
struct Experiment {
  std::string name;     // registry key, e.g. "fig2"
  std::string summary;  // one-liner for --list
  std::function<FigurePlan(const FigureOptions&)> build;
};

/// Name -> Experiment map with registration-order listing. Lookup of an
/// unknown name throws an InvalidArgument that lists every known name, so
/// a typo in `fpsched_run fig9` is self-correcting.
class ExperimentRegistry {
 public:
  /// Registers an experiment; throws InvalidArgument on a duplicate name
  /// or a missing name/builder.
  void add(Experiment experiment);

  bool contains(const std::string& name) const;

  /// Throws InvalidArgument listing the registered names when `name` is
  /// unknown.
  const Experiment& find(const std::string& name) const;

  /// Experiments in registration order.
  std::vector<const Experiment*> experiments() const;

  /// The process-wide registry, populated with the paper figures
  /// (register_paper_figures) on first use.
  static ExperimentRegistry& global();

 private:
  std::vector<Experiment> experiments_;
};

/// Registers the paper's figure reproductions and the engine's sweep
/// studies: fig2-fig7, "downtime", plus the "robustness" Monte-Carlo
/// study (exponential-optimized schedules under Weibull failures).
void register_paper_figures(ExperimentRegistry& registry);

/// One process's slice of a run: shard `index` of `count` (1-based).
/// {1, 1} is the whole run. Sharding partitions the flattened scenario
/// list into contiguous blocks, so the record streams of shards 1..N
/// concatenate to the bit-identical unsharded stream.
struct ShardSpec {
  std::size_t index = 1;
  std::size_t count = 1;

  bool active() const { return count > 1; }

  /// Parses "I/N" (e.g. "2/4"); throws InvalidArgument when malformed or
  /// out of range.
  static ShardSpec parse(const std::string& text);
};

/// [begin, end) of shard `shard` over a `total`-element list: contiguous,
/// exhaustive, and balanced to within one element.
std::pair<std::size_t, std::size_t> shard_range(std::size_t total, const ShardSpec& shard);

/// One record-producing position of a plan: the owning panel's slug plus
/// the enumerated spec (spec.scenario_index is grid-local, so the pair
/// `(panel, spec.scenario_index)` identifies the position).
struct PlannedScenario {
  std::string panel;
  ScenarioSpec spec;
};

/// The plan's positions: each panel's grid enumerated, in panel order.
/// It is the one record order: run_experiment runs these positions (a
/// shard, a contiguous slice of them), the job manager streams them, and
/// the shard merge validates per-shard NDJSON files against them.
std::vector<PlannedScenario> flatten_plan(const FigurePlan& plan);

// --- Figure grid builders (shared by the registered figures) -----------

/// Grid of Figures 2 and 4: the six BF/DF/RF x CkptW/CkptC fixed series
/// over the size axis.
ScenarioGrid linearization_grid(WorkflowKind kind, double lambda, const CostModel& cost_model,
                                const FigureOptions& options);

/// Grid of Figures 3, 5 and 6: every checkpoint strategy with its best
/// linearization, over the size axis.
ScenarioGrid strategy_grid(WorkflowKind kind, double lambda, const CostModel& cost_model,
                           const FigureOptions& options);

/// Grid of Figure 7: fixed size, best-linearization strategies over a
/// lambda axis.
ScenarioGrid lambda_sweep_grid(WorkflowKind kind, std::size_t size,
                               const std::vector<double>& lambdas, const CostModel& cost_model,
                               const FigureOptions& options);

/// Grid of the downtime-sweep study (beyond the paper): fixed size and
/// failure rate, best-linearization strategies over a downtime axis.
ScenarioGrid downtime_sweep_grid(WorkflowKind kind, std::size_t size, double lambda,
                                 const std::vector<double>& downtimes,
                                 const CostModel& cost_model, const FigureOptions& options);

/// Panel titles matching the paper's figure captions.
std::string panel_title(WorkflowKind kind, const std::string& subtitle);
std::string best_lin_panel_title(WorkflowKind kind, const std::string& subtitle);

/// Checks `options` (check_figure_options), builds the experiment's plan,
/// runs flatten_plan's positions through ONE sharded engine pass (so the
/// whole figure, not just each panel, load-balances across workers; the
/// evaluator algorithm, like every other option, comes from the specs),
/// and streams the output through `sinks`:
/// every scenario result as a ResultRecord naming its position's panel
/// first — delivered live, in flattened order, as the completed prefix
/// grows (the engine's ordered callback), so record sinks see results
/// while later scenarios still compute — then, for unsharded runs, each
/// panel assembled from its grid's consecutive scenario_count() results.
/// `text` (when non-null) receives the plan's heading before and notes
/// after the panels. With an active shard only that contiguous slice of
/// the positions runs; panel assembly is skipped, records still stream
/// in slice order. Calls finish() on every sink.
void run_experiment(const Experiment& experiment, const FigureOptions& options,
                    std::span<ResultSink* const> sinks, std::ostream* text,
                    const ShardSpec& shard = {});

}  // namespace fpsched::engine
