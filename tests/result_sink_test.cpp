// Result-sink suite: panel assembly from grid results and the three
// extracted sinks (table, ASCII chart, CSV).
#include "engine/result_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "engine/engine.hpp"
#include "support/error.hpp"

namespace fpsched::engine {
namespace {

Panel sample_panel() {
  Panel panel;
  panel.title = "CyberShake: test panel";
  panel.xs = {50, 100};
  panel.series = {{"DF-CkptW", {1.25, 1.5}}, {"DF-CkptC", {1.375, 1.625}}};
  return panel;
}

TEST(ResultSinkTest, TableSinkRendersHeadingHeadersAndValues) {
  std::ostringstream os;
  TableSink sink(os);
  sink.emit(sample_panel(), "slug");
  const std::string out = os.str();
  EXPECT_NE(out.find("=== CyberShake: test panel ==="), std::string::npos);
  EXPECT_NE(out.find("DF-CkptW"), std::string::npos);
  EXPECT_NE(out.find("1.2500"), std::string::npos);
  EXPECT_NE(out.find(" 50 |"), std::string::npos);  // integer x formatting
}

TEST(ResultSinkTest, LambdaPanelsFormatXWithSixDecimals) {
  Panel panel = sample_panel();
  panel.axis = GridAxis::lambda;
  panel.xs = {1e-3, 2e-3};
  const Table table = panel_table(panel);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("0.001000"), std::string::npos);
}

TEST(ResultSinkTest, ChartSinkClipsRunawaySeries) {
  Panel panel = sample_panel();
  panel.series.push_back({"CkptNvr", {40.0, std::numeric_limits<double>::infinity()}});
  std::ostringstream os;
  AsciiChartSink sink(os);
  sink.emit(panel, "slug");
  EXPECT_NE(os.str().find("chart clipped"), std::string::npos);
  EXPECT_NE(os.str().find("some points exceed the chart cap"), std::string::npos);
}

TEST(ResultSinkTest, CsvSinkWritesFileAndLogs) {
  const std::string dir = ::testing::TempDir();
  std::ostringstream log;
  CsvSink sink(dir, &log);
  sink.emit(sample_panel(), "result_sink_test_panel");
  const std::string path = dir + "/result_sink_test_panel.csv";
  std::ifstream csv(path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "number of tasks,DF-CkptW,DF-CkptC");
  EXPECT_NE(log.str().find("[csv written to"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ResultSinkTest, CsvSinkCreatesMissingDirectory) {
  const std::string dir = ::testing::TempDir() + "/fpsched_csv_sink_test/nested";
  ASSERT_FALSE(std::filesystem::exists(dir));
  CsvSink sink(dir);
  sink.emit(sample_panel(), "created");
  EXPECT_TRUE(std::filesystem::is_regular_file(dir + "/created.csv"));
  std::filesystem::remove_all(::testing::TempDir() + "/fpsched_csv_sink_test");
}

TEST(ResultSinkTest, CsvSinkRejectsPathThatExistsAsFile) {
  const std::string path = ::testing::TempDir() + "/fpsched_not_a_directory";
  { std::ofstream(path) << "occupied"; }
  EXPECT_THROW(CsvSink sink(path), Error);
  std::remove(path.c_str());
}

TEST(ResultSinkTest, CsvSerializesRatiosAtRoundTripPrecision) {
  Panel panel = sample_panel();
  panel.series[0].values[0] = 1.0 / 3.0;
  std::ostringstream human;
  panel_table(panel).print(human);
  EXPECT_NE(human.str().find("0.3333 "), std::string::npos);  // 4 decimals for eyes
  EXPECT_EQ(human.str().find("0.33333333"), std::string::npos);

  std::ostringstream machine;
  panel_table(panel, /*machine_precision=*/true).to_csv(machine);
  const std::string csv = machine.str();
  const std::size_t pos = csv.find("0.33333333333333331");  // max_digits10 of 1/3
  ASSERT_NE(pos, std::string::npos);
  EXPECT_DOUBLE_EQ(std::strtod(csv.c_str() + pos, nullptr), 1.0 / 3.0);
}

TEST(ResultSinkTest, AssemblePanelMapsGridResultsToSeries) {
  ScenarioGrid grid;
  grid.xs = {50, 60};
  grid.policies = {
      ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::never}),
      ScenarioPolicy::best_lin(CkptStrategy::by_weight),
  };
  const auto specs = grid.enumerate();
  std::vector<ScenarioResult> results(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results[i].spec = specs[i];
    results[i].evaluation.ratio = 1.0 + static_cast<double>(i);  // distinct marker per cell
  }

  const Panel panel = assemble_panel(grid, results, "title");
  EXPECT_EQ(panel.title, "title");
  EXPECT_EQ(panel.axis, GridAxis::task_count);
  EXPECT_EQ(panel.xs, grid.xs);
  ASSERT_EQ(panel.series.size(), 2u);
  EXPECT_EQ(panel.series[0].name, "DF-CkptNvr");
  EXPECT_EQ(panel.series[1].name, "CkptW");
  // enumerate order is x-major, policy-minor.
  EXPECT_DOUBLE_EQ(panel.series[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(panel.series[1].values[0], 2.0);
  EXPECT_DOUBLE_EQ(panel.series[0].values[1], 3.0);
  EXPECT_DOUBLE_EQ(panel.series[1].values[1], 4.0);
}

TEST(ResultSinkTest, AssemblePanelMapsDowntimeAxisToX) {
  ScenarioGrid grid;
  grid.base.task_count = 50;
  grid.axis = GridAxis::downtime;
  grid.xs = {0.0, 300.0, 900.0};
  grid.policies = {ScenarioPolicy::best_lin(CkptStrategy::by_weight)};
  const auto specs = grid.enumerate();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_DOUBLE_EQ(specs[1].model.downtime(), 300.0);
  std::vector<ScenarioResult> results(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results[i].spec = specs[i];
    results[i].evaluation.ratio = 1.0 + static_cast<double>(i);
  }

  const Panel panel = assemble_panel(grid, results, "downtime panel");
  EXPECT_EQ(panel.axis, GridAxis::downtime);
  std::ostringstream csv;
  panel_table(panel).to_csv(csv);
  EXPECT_EQ(csv.str().rfind("downtime,", 0), 0u) << csv.str();  // the axis names the x column
  ASSERT_EQ(panel.xs.size(), 3u);
  EXPECT_DOUBLE_EQ(panel.xs[1], 300.0);
  EXPECT_DOUBLE_EQ(panel.series[0].values[2], 3.0);
}

TEST(ResultSinkTest, AssemblePanelRejectsResultCountMismatchNamingTheKind) {
  ScenarioGrid grid;
  grid.base.workflow = WorkflowKind::cybershake;
  grid.xs = {50, 60};
  grid.policies = {ScenarioPolicy::best_lin(CkptStrategy::by_weight)};
  const std::vector<ScenarioResult> wrong(3);  // grid has 2 scenarios
  try {
    assemble_panel(grid, wrong, "t");
    FAIL() << "expected a result-count rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("results do not match the grid"), std::string::npos) << what;
    EXPECT_NE(what.find("CyberShake"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
  }
}

ScenarioResult sample_result() {
  ScenarioResult result;
  result.spec.workflow = WorkflowKind::montage;
  result.spec.task_count = 50;
  result.spec.model = FailureModel(1e-3, 60.0);
  result.spec.cost_model = CostModel::proportional(0.1);
  result.spec.policy =
      ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight});
  result.spec.workflow_seed = 42;
  result.spec.weight_cv = 0.25;
  result.spec.stride = 4;
  result.spec.scenario_index = 7;
  result.linearization = LinearizeMethod::depth_first;
  result.best_budget = 13;
  result.evaluation.expected_makespan = 1887.5;
  result.evaluation.ratio = 1.25;
  return result;
}

TEST(ResultSinkTest, ToJsonGoldenRecord) {
  const ScenarioResult result = sample_result();
  const ResultRecord record{"fig2", "fig2a_montage", result};
  EXPECT_EQ(to_json(record),
            "{\"experiment\":\"fig2\",\"panel\":\"fig2a_montage\",\"workflow\":\"Montage\","
            "\"tasks\":50,\"lambda\":0.001,\"downtime\":60,\"cost_model\":\"proportional\","
            "\"cost_parameter\":0.10000000000000001,\"policy_kind\":\"fixed\","
            "\"policy\":\"DF-CkptW\",\"workflow_seed\":42,\"weight_cv\":0.25,\"stride\":4,"
            "\"scenario_index\":7,\"linearization\":\"DF\",\"best_budget\":13,"
            "\"expected_makespan\":1887.5,\"ratio\":1.25}");
}

TEST(ResultSinkTest, FastRecordsNameTheirAlgorithmAfterTheStride) {
  ScenarioResult result = sample_result();
  result.spec.eval_math = EvalMath::fast;
  EXPECT_EQ(record_body_json(result),
            "\"workflow\":\"Montage\",\"tasks\":50,\"lambda\":0.001,\"downtime\":60,"
            "\"cost_model\":\"proportional\",\"cost_parameter\":0.10000000000000001,"
            "\"policy_kind\":\"fixed\",\"policy\":\"DF-CkptW\",\"workflow_seed\":42,"
            "\"weight_cv\":0.25,\"stride\":4,\"eval_math\":\"fast\",\"scenario_index\":7,"
            "\"linearization\":\"DF\",\"best_budget\":13,\"expected_makespan\":1887.5,"
            "\"ratio\":1.25}");
}

TEST(ResultSinkTest, ToJsonRoundTripsRatiosAndQuotesNonFinite) {
  ScenarioResult result = sample_result();
  result.evaluation.ratio = 0.1 + 0.2;  // classically unrepresentable as "0.3"
  const std::string line = to_json({"e", "p", result});
  const std::size_t pos = line.find("\"ratio\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_DOUBLE_EQ(std::strtod(line.c_str() + pos + 8, nullptr), 0.1 + 0.2);

  result.evaluation.ratio = std::numeric_limits<double>::infinity();
  EXPECT_NE(to_json({"e", "p", result}).find("\"ratio\":\"inf\""), std::string::npos);
}

TEST(ResultSinkTest, NdjsonSinkStreamsOneLinePerRecord) {
  const ScenarioResult result = sample_result();
  std::ostringstream os;
  NdjsonSink sink(os);
  sink.record({"fig2", "a", result});
  sink.record({"fig2", "b", result});
  sink.finish();  // no-op for NDJSON, but part of the sink contract
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_EQ(out.find('{'), 0u);
  EXPECT_NE(out.find("\"panel\":\"b\""), std::string::npos);
}

TEST(ResultSinkTest, JsonSinkBuffersIntoOneArray) {
  const ScenarioResult result = sample_result();
  std::ostringstream os;
  JsonSink sink(os);
  sink.record({"fig2", "a", result});
  sink.record({"fig2", "b", result});
  EXPECT_TRUE(os.str().empty());  // nothing until finish()
  sink.finish();
  const std::string out = os.str();
  EXPECT_EQ(out.find("[\n"), 0u);
  EXPECT_NE(out.find("},\n"), std::string::npos);
  EXPECT_EQ(out.rfind("]\n"), out.size() - 2);
}

TEST(ResultSinkTest, EndToEndGridToPanel) {
  ScenarioGrid grid;
  grid.base.workflow = WorkflowKind::montage;
  grid.base.stride = 8;
  grid.xs = {50};
  grid.policies = {
      ScenarioPolicy::fixed({LinearizeMethod::depth_first, CkptStrategy::by_weight})};
  const ExperimentEngine engine({.threads = 2});
  const auto results = engine.run(grid.enumerate());
  const Panel panel = assemble_panel(grid, results, "Montage: smoke");
  ASSERT_EQ(panel.series.size(), 1u);
  ASSERT_EQ(panel.series[0].values.size(), 1u);
  EXPECT_GT(panel.series[0].values[0], 1.0);  // checkpoints + failures cost something
  EXPECT_TRUE(std::isfinite(panel.series[0].values[0]));
}

}  // namespace
}  // namespace fpsched::engine
