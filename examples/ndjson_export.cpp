// Programmatic use of the experiment API: register a custom experiment,
// run it through the engine, and stream per-scenario records as NDJSON —
// the same record schema fpsched_run emits, ready for jq / pandas /
// downstream services.
//
//   $ ./ndjson_export | head -2
//   $ ./ndjson_export --tasks 80 | jq .ratio
#include <iostream>

#include "engine/experiment.hpp"
#include "engine/result_sink.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

using namespace fpsched;

int main(int argc, char** argv) {
  CliParser cli("Export a small CyberShake strategy grid as NDJSON records on stdout.");
  cli.add_option("tasks", "50", "workflow size");
  cli.add_option("stride", "8", "N-sweep stride (coarse by default: this is a demo)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // An Experiment is just data: a name plus a FigurePlan builder. The
    // registry is optional — run_experiment takes the struct directly.
    const engine::Experiment experiment{
        "ndjson-demo",
        "CyberShake checkpointing strategies at 3 failure rates",
        [](const engine::FigureOptions& options) {
          engine::FigurePlan plan;
          plan.panels = {{engine::lambda_sweep_grid(WorkflowKind::cybershake, options.tasks,
                                                    {1e-4, 5e-4, 1e-3},
                                                    CostModel::proportional(0.1), options),
                          engine::best_lin_panel_title(WorkflowKind::cybershake, "demo sweep"),
                          "demo_cybershake"}};
          return plan;
        }};

    engine::FigureOptions options;
    options.tasks = cli.get_count("tasks", 1);
    options.stride = cli.get_count("stride", 1);

    engine::NdjsonSink ndjson(std::cout);
    const std::vector<engine::ResultSink*> sinks{&ndjson};
    // text = nullptr: records only, no heading — pipe-friendly.
    engine::run_experiment(experiment, options, sinks, nullptr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
