// Pluggable result sinks for engine output — a two-level API.
//
// Level 1: every scenario result streams through the sink as a
// ResultRecord (the full ScenarioSpec provenance plus the outcome), in
// flattened scenario order. Machine-readable sinks (NDJSON, JSON) consume
// records; because each record is a pure function of its spec, the
// record streams of a sharded run concatenate to the bit-identical
// unsharded stream.
//
// Level 2: a Panel is the paper's figure unit — a grid's axis points
// (task counts, failure rates or downtimes) with one T/T_inf series per
// policy. Presentation sinks render panels — a fixed-width table, an
// ASCII chart, a CSV file. assemble_panel() reads a grid's flattened
// ScenarioResults back onto those coordinates; sharded runs skip this
// level (their slice does not cover whole panels).
//
// Sinks compose freely: the bench harness stacks table + chart + CSV, and
// fpsched_run adds NDJSON/JSON. The HTTP service streams the same record
// bytes from record_json_prefix + record_body_json (see below).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "support/table.hpp"

namespace fpsched::engine {

/// One plotted line: a policy's ratio per x-grid point.
struct PanelSeries {
  std::string name;
  std::vector<double> values;
};

struct Panel {
  std::string title;  // e.g. "CyberShake: lambda=0.001, c=0.1w"
  /// Which spec field the xs set; drives their formatting and label
  /// (to_string(axis)).
  GridAxis axis = GridAxis::task_count;
  std::vector<double> xs;
  std::vector<PanelSeries> series;
};

/// One scenario outcome with its full provenance: which experiment and
/// panel produced it, and the complete ScenarioSpec (inside `result.spec`)
/// that reproduces it. Views borrow from the caller for the duration of
/// the record() call; sinks that buffer must copy what they keep.
struct ResultRecord {
  std::string_view experiment;  // registry name; empty for ad-hoc runs
  std::string_view panel;       // panel slug ("fig2a_cybershake")
  const ScenarioResult& result;
};

/// The record as one JSON object (a single NDJSON line, no trailing
/// newline). Doubles serialize at round-trip precision
/// (max_digits10); non-finite values become the JSON strings "inf" /
/// "-inf" / "nan" since JSON has no literal for them.
std::string to_json(const ResultRecord& record);

/// The two halves of to_json, split so the service's result cache can
/// store the provenance-free tail once and re-head it per request:
/// to_json(record) == record_json_prefix(record.experiment, record.panel)
///                    + record_body_json(record.result), byte for byte.
/// The body starts at the "workflow" field and includes the closing
/// brace; it is a pure function of the spec — everything a ResultCacheKey
/// pins down.
std::string record_json_prefix(std::string_view experiment, std::string_view panel);
std::string record_body_json(const ScenarioResult& result);

/// The body's spec part: every field from "workflow" through
/// `"scenario_index":N,` ("eval_math" included), a pure function of the
/// spec; the result part ("linearization" onward) follows it. A shard
/// merge requires each record line to start with record_json_prefix +
/// record_spec_json of its planned position.
std::string record_spec_json(const ScenarioSpec& spec);

/// support/table.hpp's JSON string escaper, the one that records, the
/// service, metrics and traces share.
using fpsched::json_quote;

/// The panel as a printable/CSV-able table (x column plus one column per
/// series; lambda grids format x with 6 decimals, size grids as integers,
/// downtime grids with 3 decimals). Human tables round ratios to 4
/// decimals; machine_precision serializes them at round-trip precision
/// (max_digits10) for CSV export.
Table panel_table(const Panel& panel, bool machine_precision = false);

/// The grid's panel from the results of its enumerate() order: its axis
/// and points, and one series per policy. Throws InvalidArgument when
/// the result count is not the grid's scenario count.
Panel assemble_panel(const ScenarioGrid& grid, std::span<const ScenarioResult> results,
                     std::string title);

/// Creates `directory` (and parents) when missing; throws InvalidArgument
/// when the path exists as a non-directory.
void ensure_output_directory(const std::string& directory);

/// Consumes experiment output. Both levels default to no-ops so a sink
/// implements only the granularity it cares about; `slug` is a stable
/// per-panel file stem ("fig2a_cybershake"), which stream sinks ignore.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// Level 1: one scenario result, in flattened scenario order, before
  /// any panel of the run is emitted.
  virtual void record(const ResultRecord& record) { (void)record; }
  /// Level 2: an assembled panel (skipped in sharded runs).
  virtual void emit(const Panel& panel, const std::string& slug) {
    (void)panel;
    (void)slug;
  }
  /// Called once after the run's last record/panel (flush buffers, close
  /// JSON arrays).
  virtual void finish() {}
};

/// "\n=== title ===\n" heading plus the column-aligned ratio table.
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& os);
  void emit(const Panel& panel, const std::string& slug) override;

 private:
  std::ostream& os_;
};

/// Terminal chart of every series. Runaway series (e.g. CkptNvr on
/// Genome) are clipped at 3x the median finite ratio so the contenders
/// stay readable; the table sink keeps the exact values.
class AsciiChartSink : public ResultSink {
 public:
  explicit AsciiChartSink(std::ostream& os);
  void emit(const Panel& panel, const std::string& slug) override;

 private:
  std::ostream& os_;
};

/// Writes `<directory>/<slug>.csv` with ratios at round-trip precision;
/// logs "[csv written to ...]" to `log` when provided. Creates the
/// directory on demand; throws InvalidArgument when the path exists as a
/// non-directory or the file cannot be opened.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::string directory, std::ostream* log = nullptr);
  void emit(const Panel& panel, const std::string& slug) override;

 private:
  std::string directory_;
  std::ostream* log_;
};

/// Streams each record as one JSON object per line (NDJSON).
class NdjsonSink : public ResultSink {
 public:
  explicit NdjsonSink(std::ostream& os);
  void record(const ResultRecord& record) override;

 private:
  std::ostream& os_;
};

/// Buffers records and writes them as one JSON array on finish().
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::ostream& os);
  void record(const ResultRecord& record) override;
  void finish() override;

 private:
  std::ostream& os_;
  std::vector<std::string> objects_;
};

}  // namespace fpsched::engine
