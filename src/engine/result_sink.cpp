#include "engine/result_sink.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/ascii_plot.hpp"
#include "support/error.hpp"

namespace fpsched::engine {

Table panel_table(const Panel& panel, bool machine_precision) {
  std::vector<std::string> headers{to_string(panel.axis)};
  for (const PanelSeries& series : panel.series) headers.push_back(series.name);
  Table table(headers);
  // Task counts are integers, lambdas need their leading decimals,
  // downtime seconds use 3 decimals.
  const auto format_x = [&](double x) {
    if (panel.axis == GridAxis::task_count) return std::to_string(static_cast<long long>(x));
    return format_double(x, panel.axis == GridAxis::lambda ? 6 : 3);
  };
  const auto format_ratio = [&](double r) {
    return machine_precision ? format_double_full(r) : format_double(r, 4);
  };
  for (std::size_t i = 0; i < panel.xs.size(); ++i) {
    std::vector<std::string> row;
    row.push_back(format_x(panel.xs[i]));
    for (const PanelSeries& series : panel.series) row.push_back(format_ratio(series.values[i]));
    table.add_row(std::move(row));
  }
  return table;
}

Panel assemble_panel(const ScenarioGrid& grid, std::span<const ScenarioResult> results,
                     std::string title) {
  ensure(results.size() == grid.scenario_count(),
         "assemble_panel(" + to_string(grid.base.workflow) + "): " +
             std::to_string(results.size()) + " results do not match the grid (" +
             std::to_string(grid.scenario_count()) + " scenarios)");
  Panel panel;
  panel.title = std::move(title);
  panel.axis = grid.axis;
  panel.xs = grid.xs;
  // Scenario i is point i / policies.size() under policy i % policies.size().
  const std::size_t policy_count = grid.policies.size();
  for (std::size_t p = 0; p < policy_count; ++p) {
    PanelSeries series{grid.policies[p].name(), {}};
    for (std::size_t x = 0; x < grid.xs.size(); ++x) {
      series.values.push_back(results[x * policy_count + p].ratio());
    }
    panel.series.push_back(std::move(series));
  }
  return panel;
}

void ensure_output_directory(const std::string& directory) {
  const std::filesystem::path path(directory);
  if (std::filesystem::exists(path)) {
    if (!std::filesystem::is_directory(path)) {
      throw InvalidArgument("'" + directory + "' exists and is not a directory");
    }
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw InvalidArgument("cannot create directory '" + directory + "': " + ec.message());
}

// --- JSON records ------------------------------------------------------

namespace {

/// Round-trip JSON number; inf/nan (legal ratios — a schedule may never
/// finish) have no JSON literal and become strings.
std::string json_number(double value) {
  if (!std::isfinite(value)) return json_quote(format_double_full(value));
  return format_double_full(value);
}

std::string_view cost_model_kind(const CostModel& model) {
  switch (model.kind) {
    case CostModel::Kind::proportional: return "proportional";
    case CostModel::Kind::constant: return "constant";
  }
  return "?";
}

std::string_view policy_kind_name(ScenarioPolicy::Kind kind) {
  switch (kind) {
    case ScenarioPolicy::Kind::fixed_heuristic: return "fixed";
    case ScenarioPolicy::Kind::best_linearization: return "best_linearization";
    case ScenarioPolicy::Kind::simulated_best: return "simulated_best";
  }
  return "?";
}

std::string_view sim_distribution_name(ScenarioPolicy::SimDistribution distribution) {
  switch (distribution) {
    case ScenarioPolicy::SimDistribution::analytic: return "analytic";
    case ScenarioPolicy::SimDistribution::exponential: return "exponential";
    case ScenarioPolicy::SimDistribution::weibull: return "weibull";
  }
  return "?";
}

/// The spec part: "workflow" through "scenario_index":N and its comma.
void write_record_spec(std::ostream& os, const ScenarioSpec& spec) {
  os << "\"workflow\":" << json_quote(to_string(spec.workflow))
     << ",\"tasks\":" << spec.task_count << ",\"lambda\":" << json_number(spec.model.lambda())
     << ",\"downtime\":" << json_number(spec.model.downtime())
     << ",\"cost_model\":" << json_quote(cost_model_kind(spec.cost_model))
     << ",\"cost_parameter\":" << json_number(spec.cost_model.parameter)
     << ",\"policy_kind\":" << json_quote(policy_kind_name(spec.policy.kind))
     << ",\"policy\":" << json_quote(spec.policy.name());
  if (spec.policy.kind == ScenarioPolicy::Kind::simulated_best) {
    // Appended only for the new kind: records of pre-existing policies
    // keep their historical bytes.
    os << ",\"sim_distribution\":" << json_quote(sim_distribution_name(spec.policy.sim_distribution))
       << ",\"sim_shape\":" << json_number(spec.policy.sim_shape)
       << ",\"sim_trials\":" << spec.policy.sim_trials
       << ",\"sim_seed\":" << spec.policy.sim_seed;
  }
  os << ",\"workflow_seed\":" << spec.workflow_seed
     << ",\"weight_cv\":" << json_number(spec.weight_cv) << ",\"stride\":" << spec.stride;
  // Only fast records name their algorithm: exact records keep their
  // historical bytes.
  if (spec.eval_math == EvalMath::fast) os << ",\"eval_math\":\"fast\"";
  os << ",\"scenario_index\":" << spec.scenario_index << ',';
}

}  // namespace

std::string record_json_prefix(std::string_view experiment, std::string_view panel) {
  return "{\"experiment\":" + json_quote(experiment) + ",\"panel\":" + json_quote(panel) + ",";
}

std::string record_spec_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  write_record_spec(os, spec);
  return os.str();
}

std::string record_body_json(const ScenarioResult& result) {
  std::ostringstream os;
  write_record_spec(os, result.spec);
  os << "\"linearization\":" << json_quote(to_string(result.linearization))
     << ",\"best_budget\":" << result.best_budget
     << ",\"expected_makespan\":" << json_number(result.evaluation.expected_makespan)
     << ",\"ratio\":" << json_number(result.evaluation.ratio) << '}';
  return os.str();
}

std::string to_json(const ResultRecord& record) {
  return record_json_prefix(record.experiment, record.panel) + record_body_json(record.result);
}

// --- Sinks -------------------------------------------------------------

TableSink::TableSink(std::ostream& os) : os_(os) {}

void TableSink::emit(const Panel& panel, const std::string&) {
  os_ << "\n=== " << panel.title << " ===\n";
  panel_table(panel).print(os_);
}

AsciiChartSink::AsciiChartSink(std::ostream& os) : os_(os) {}

void AsciiChartSink::emit(const Panel& panel, const std::string&) {
  std::vector<double> finite;
  for (const PanelSeries& series : panel.series)
    for (const double r : series.values)
      if (std::isfinite(r)) finite.push_back(r);
  if (finite.empty()) return;
  std::sort(finite.begin(), finite.end());
  const double cap = std::max(finite[finite.size() / 2] * 3.0, finite.front() * 1.5);
  bool clipped = false;
  AsciiChart chart("T / T_inf (chart clipped at " + format_double(cap, 2) + ")", 72, 18);
  chart.set_x_label(to_string(panel.axis));
  chart.set_y_label("T / T_inf");
  for (const PanelSeries& series : panel.series) {
    PlotSeries plot{series.name, panel.xs, series.values};
    for (double& y : plot.ys) {
      if (!std::isfinite(y) || y > cap) {
        y = cap;
        clipped = true;
      }
    }
    chart.add_series(std::move(plot));
  }
  chart.print(os_);
  if (clipped) os_ << "  (some points exceed the chart cap; see the table for exact values)\n";
}

CsvSink::CsvSink(std::string directory, std::ostream* log)
    : directory_(std::move(directory)), log_(log) {
  ensure_output_directory(directory_);
}

void CsvSink::emit(const Panel& panel, const std::string& slug) {
  const std::string path = directory_ + "/" + slug + ".csv";
  std::ofstream csv(path);
  if (!csv.good()) throw InvalidArgument("cannot open " + path + " for writing");
  panel_table(panel, /*machine_precision=*/true).to_csv(csv);
  if (log_) *log_ << "  [csv written to " << path << "]\n";
}

NdjsonSink::NdjsonSink(std::ostream& os) : os_(os) {}

void NdjsonSink::record(const ResultRecord& record) { os_ << to_json(record) << '\n'; }

JsonSink::JsonSink(std::ostream& os) : os_(os) {}

void JsonSink::record(const ResultRecord& record) { objects_.push_back(to_json(record)); }

void JsonSink::finish() {
  os_ << "[\n";
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    os_ << "  " << objects_[i] << (i + 1 < objects_.size() ? ",\n" : "\n");
  }
  os_ << "]\n";
  objects_.clear();
}

}  // namespace fpsched::engine
