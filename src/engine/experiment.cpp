#include "engine/experiment.hpp"

#include <ostream>

#include "engine/engine.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace fpsched::engine {

void ExperimentRegistry::add(Experiment experiment) {
  ensure(!experiment.name.empty(), "an experiment needs a name");
  ensure(static_cast<bool>(experiment.build),
         "experiment '" + experiment.name + "' needs a builder");
  if (contains(experiment.name)) {
    throw InvalidArgument("experiment '" + experiment.name + "' is already registered");
  }
  experiments_.push_back(std::move(experiment));
}

bool ExperimentRegistry::contains(const std::string& name) const {
  for (const Experiment& experiment : experiments_) {
    if (experiment.name == name) return true;
  }
  return false;
}

const Experiment& ExperimentRegistry::find(const std::string& name) const {
  for (const Experiment& experiment : experiments_) {
    if (experiment.name == name) return experiment;
  }
  std::string known;
  for (const Experiment& experiment : experiments_) {
    if (!known.empty()) known += ", ";
    known += experiment.name;
  }
  throw InvalidArgument("unknown experiment '" + name + "' (registered: " +
                        (known.empty() ? "none" : known) + ")");
}

std::vector<const Experiment*> ExperimentRegistry::experiments() const {
  std::vector<const Experiment*> out;
  out.reserve(experiments_.size());
  for (const Experiment& experiment : experiments_) out.push_back(&experiment);
  return out;
}

ExperimentRegistry& ExperimentRegistry::global() {
  static ExperimentRegistry* registry = [] {
    auto* r = new ExperimentRegistry();
    register_paper_figures(*r);
    return r;
  }();
  return *registry;
}

ShardSpec ShardSpec::parse(const std::string& text) {
  const std::string_view view(text);
  const std::size_t slash = view.find('/');
  ShardSpec shard;
  if (slash != std::string_view::npos) {
    shard.index = parse_count(view.substr(0, slash), "shard index", 1);
    shard.count = parse_count(view.substr(slash + 1), "shard count", 1);
  }
  if (slash == std::string_view::npos || shard.index > shard.count) {
    throw InvalidArgument("shard must be I/N with 1 <= I <= N (e.g. \"2/4\"), got '" + text +
                          "'");
  }
  return shard;
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t total, const ShardSpec& shard) {
  ensure(shard.count >= 1 && shard.index >= 1 && shard.index <= shard.count,
         "shard index out of range");
  // Contiguous balanced blocks: shard i of N covers
  // [total*(i-1)/N, total*i/N). Adjacent shards tile [0, total) exactly,
  // which is what makes concatenated shard outputs equal the unsharded
  // run byte for byte.
  return {total * (shard.index - 1) / shard.count, total * shard.index / shard.count};
}

std::vector<PlannedScenario> flatten_plan(const FigurePlan& plan) {
  std::size_t total = 0;
  for (const PanelSpec& panel : plan.panels) total += panel.grid.scenario_count();
  std::vector<PlannedScenario> flattened;
  flattened.reserve(total);
  for (const PanelSpec& panel : plan.panels) {
    for (ScenarioSpec& spec : panel.grid.enumerate()) {
      flattened.push_back({panel.slug, std::move(spec)});
    }
  }
  return flattened;
}

void run_experiment(const Experiment& experiment, const FigureOptions& options,
                    std::span<ResultSink* const> sinks, std::ostream* text,
                    const ShardSpec& shard) {
  const obs::TraceSpan span([&] { return "experiment " + experiment.name; });
  check_figure_options(options);
  const FigurePlan plan = experiment.build(options);
  // Every panel's grid in one list, so the whole figure shards across the
  // engine's workers as a single batch.
  const std::vector<PlannedScenario> planned = flatten_plan(plan);

  // Heading first: a full-grid run can take hours, and the old binaries
  // announced themselves before computing.
  if (text && !plan.heading.empty()) *text << plan.heading << "\n";

  const auto [begin, end] = shard_range(planned.size(), shard);
  std::vector<ScenarioSpec> specs;
  specs.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) specs.push_back(planned[i].spec);
  const ExperimentEngine engine({.threads = options.threads});

  // Level 1: every scenario result as a record, in flattened order —
  // streamed live through the engine's ordered callback, so a record
  // sink (NDJSON file, HTTP stream) sees each result as soon as its
  // ordered prefix completes instead of after the whole slice.
  const std::vector<ScenarioResult> results =
      engine.run(specs, [&](std::size_t offset_in_slice, const ScenarioResult& result) {
        const ResultRecord record{experiment.name, planned[begin + offset_in_slice].panel,
                                  result};
        for (ResultSink* sink : sinks) sink->record(record);
      });

  // Level 2: assembled panels — only when this process ran the whole
  // plan (a shard's slice does not cover whole panels). Each panel's
  // results are the next scenario_count() of the flattened list.
  if (!shard.active()) {
    std::size_t first = 0;
    for (const PanelSpec& panel : plan.panels) {
      const std::size_t count = panel.grid.scenario_count();
      const Panel assembled = assemble_panel(
          panel.grid, std::span<const ScenarioResult>(results).subspan(first, count),
          panel.title);
      first += count;
      for (ResultSink* sink : sinks) sink->emit(assembled, panel.slug);
    }
  }

  if (text && !plan.notes.empty()) *text << plan.notes;
  for (ResultSink* sink : sinks) sink->finish();
}

}  // namespace fpsched::engine
