#include "service/shard_merge.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "engine/result_sink.hpp"
#include "support/error.hpp"

namespace fpsched::service {

namespace {

/// Why `line` does not start with `expected` (a record's prefix and spec
/// part): the first field that differs, as planned and as found. Fields
/// are split at `,"`, which a JSON string value cannot hold unescaped.
std::string first_difference(std::string_view line, std::string_view expected) {
  const std::size_t differs =
      std::mismatch(expected.begin(), expected.end(), line.begin(), line.end()).first -
      expected.begin();
  const std::size_t comma = differs == 0 ? std::string_view::npos
                                         : expected.rfind(",\"", differs - 1);
  const std::size_t start = comma == std::string_view::npos ? 0 : comma + 1;
  const auto field = [start](std::string_view text) {
    if (start >= text.size()) return std::string("nothing");
    std::string_view found = text.substr(start, text.find(",\"", start) - start);
    if (found.ends_with(',')) found.remove_suffix(1);  // the spec part's last comma
    return std::string(found.substr(0, 80));
  };
  return "expected " + field(expected) + ", found " + field(line);
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
  engine::check_figure_options(options);
  const std::vector<engine::PlannedScenario> flattened =
      engine::flatten_plan(experiment.build(options));
  std::string option_names;
  for (const engine::FigureOption& option : engine::figure_option_table()) {
    option_names += option_names.empty() ? "--" : ", --";
    option_names += option.cli_name();
  }

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
      // Every field before "linearization" is a function of the planned
      // position: one comparison pins them all.
      const engine::PlannedScenario& planned = flattened[position];
      const std::string expected = engine::record_json_prefix(experiment.name, planned.panel) +
                                   engine::record_spec_json(planned.spec);
      if (!line.starts_with(expected)) {
        merge_error(path, line_number,
                    "record does not match position " + std::to_string(position) + " of " +
                        std::to_string(flattened.size()) + " (panel '" + planned.panel +
                        "', scenario_index " + std::to_string(planned.spec.scenario_index) +
                        "): " + first_difference(line, expected) +
                        " — shard files out of order, a gap between shards, or options that "
                        "differ from the producing run's (pass the same " +
                        option_names + ")");
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
