#include "service/shard_merge.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "support/error.hpp"
#include "support/table.hpp"

namespace fpsched::service {

namespace {

/// Whether the record line carries `"key":<value>` ("value" for
/// strings). Matching the serialized field beats a full JSON parse here:
/// the lines were produced by to_json(), and the merged output must be
/// byte-identical to them anyway, so the raw text is the ground truth.
bool has_field(std::string_view line, std::string_view key, std::string_view value,
               bool quoted) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  if (quoted) needle += '"';
  needle += value;
  if (quoted) {
    needle += '"';
    return line.find(needle) != std::string_view::npos;
  }
  // Unquoted (numeric) values need a terminator check so scenario_index
  // 1 does not match 10.
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  const std::size_t end = at + needle.size();
  return end < line.size() && (line[end] == ',' || line[end] == '}');
}

[[noreturn]] void merge_error(const std::string& path, std::size_t line_number,
                              const std::string& message) {
  throw InvalidArgument(path + ":" + std::to_string(line_number) + ": " + message);
}

}  // namespace

MergeReport merge_ndjson_shards(const engine::Experiment& experiment,
                                const engine::FigureOptions& options,
                                const std::vector<std::string>& shard_paths, std::ostream& out,
                                const MergeOptions& merge) {
  const std::vector<engine::PlannedScenario> flattened =
      engine::flatten_plan(experiment.build(options));

  MergeReport report;
  report.expected = flattened.size();
  std::size_t position = 0;  // next flattened index the stream must produce

  for (const std::string& path : shard_paths) {
    ++report.files;
    std::ifstream file(path, std::ios::binary);
    if (!file.good()) throw InvalidArgument("cannot open shard file " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string content = buffer.str();
    if (!content.empty() && content.back() != '\n') {
      merge_error(path, 1 + std::count(content.begin(), content.end(), '\n'),
                  "truncated shard file (no trailing newline) — was the producing run cut "
                  "short?");
    }

    std::size_t line_number = 0;
    std::size_t start = 0;
    while (start < content.size()) {
      ++line_number;
      const std::size_t end = content.find('\n', start);
      const std::string_view line = std::string_view(content).substr(start, end - start);
      start = end + 1;
      if (line.empty()) merge_error(path, line_number, "empty record line");
      if (position >= flattened.size()) {
        merge_error(path, line_number,
                    "more records than the experiment's " + std::to_string(flattened.size()) +
                        " scenarios — duplicated shard, or options that do not match the "
                        "producing run");
      }
      const engine::PlannedScenario& planned = flattened[position];
      if (!has_field(line, "experiment", experiment.name, /*quoted=*/true)) {
        merge_error(path, line_number,
                    "record does not belong to experiment '" + experiment.name + "'");
      }
      if (!has_field(line, "panel", planned.panel, /*quoted=*/true) ||
          !has_field(line, "scenario_index", std::to_string(planned.spec.scenario_index),
                     /*quoted=*/false)) {
        merge_error(path, line_number,
                    "record out of sequence: expected panel '" + planned.panel +
                        "' scenario_index " + std::to_string(planned.spec.scenario_index) +
                        " (position " + std::to_string(position) + " of " +
                        std::to_string(flattened.size()) +
                        ") — shard files out of order, a gap between shards, or options that "
                        "do not match the producing run");
      }
      // Sequence position alone cannot catch value-only mismatches (a
      // shard produced with another --seed, --weight-cv, --downtimes or
      // --trials has identical panel/index sequences); pin the spec
      // fields the record carries. Downtimes are finite, so the record
      // writes them unquoted at full precision.
      const bool simulated =
          planned.spec.policy.kind == engine::ScenarioPolicy::Kind::simulated_best;
      if (!has_field(line, "tasks", std::to_string(planned.spec.task_count),
                     /*quoted=*/false) ||
          !has_field(line, "downtime", format_double_full(planned.spec.model.downtime()),
                     /*quoted=*/false) ||
          (simulated && !has_field(line, "sim_trials",
                                   std::to_string(planned.spec.policy.sim_trials),
                                   /*quoted=*/false)) ||
          !has_field(line, "workflow_seed", std::to_string(planned.spec.workflow_seed),
                     /*quoted=*/false) ||
          !has_field(line, "weight_cv", format_double_full(planned.spec.weight_cv),
                     /*quoted=*/false) ||
          !has_field(line, "stride", std::to_string(planned.spec.stride),
                     /*quoted=*/false)) {
        merge_error(path, line_number,
                    "record options do not match: expected tasks=" +
                        std::to_string(planned.spec.task_count) +
                        " downtime=" + format_double_full(planned.spec.model.downtime()) +
                        (simulated ? " sim_trials=" + std::to_string(planned.spec.policy.sim_trials)
                                   : std::string()) +
                        " workflow_seed=" + std::to_string(planned.spec.workflow_seed) +
                        " weight_cv=" + format_double_full(planned.spec.weight_cv) +
                        " stride=" + std::to_string(planned.spec.stride) +
                        " — pass the same grid flags (--quick, --sizes, --seed, --downtimes, "
                        "--trials, ...) the producing runs used");
      }
      // Fast records say so; exact ones keep their historical bytes and
      // carry no such field.
      const bool fast_record = has_field(line, "eval_math", "fast", /*quoted=*/true);
      if (fast_record != (options.eval_math == EvalMath::fast)) {
        merge_error(path, line_number,
                    std::string("record was computed with --eval-math ") +
                        (fast_record ? "fast" : "exact") + ", expected " +
                        to_string(options.eval_math) +
                        " — pass the same --eval-math the producing runs used");
      }
      ++position;
    }
    // Validated: forward the shard's bytes verbatim, preserving the
    // byte-identity guarantee.
    out << content;
  }

  report.records = position;
  if (merge.require_complete && !report.complete()) {
    throw InvalidArgument("incomplete merge: " + std::to_string(report.records) + " of " +
                          std::to_string(report.expected) +
                          " scenarios covered — missing shard files? (drop --require-complete "
                          "to accept a prefix)");
  }
  if (!out.good()) throw InvalidArgument("error writing the merged stream");
  return report;
}

}  // namespace fpsched::service
