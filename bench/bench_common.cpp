#include "bench_common.hpp"

#include "engine/result_sink.hpp"
#include "support/error.hpp"

namespace fpsched::bench {

void add_sweep_options(CliParser& cli) {
  cli.add_option("tasks", "200", "fixed workflow size for the sweep experiments (fig7/downtime)");
  cli.add_option("downtimes", "0,60,300,900,3600",
                 "downtime grid in seconds (downtime sweep only)");
}

void add_trial_options(CliParser& cli) {
  cli.add_option("trials", "20000",
                 "Monte-Carlo trials per simulated cell (robustness experiment)");
}

std::optional<FigureOptions> parse_figure_options(CliParser& cli, int argc,
                                                  const char* const* argv) {
  cli.add_option("sizes", "50,100,200,300,400,500,600,700", "task-count grid");
  cli.add_option("stride", "1", "N-sweep stride (1 = exhaustive, as in the paper)");
  cli.add_option("seed", "42", "workflow generation seed");
  cli.add_option("weight-cv", "0.2", "coefficient of variation of task weights");
  cli.add_option("csv", "", "directory for CSV output (created files: <figure>.csv)");
  cli.add_option("threads", "0",
                 "worker threads (0 = all cores or FPSCHED_THREADS, 1 = serial); output is "
                 "bit-identical for every value");
  cli.add_option("eval-math", "exact",
                 "evaluator algorithm: 'exact' (bit-identical to prior releases) or 'fast' "
                 "(prefix-product recurrence, within 1e-10 relative of exact)");
  cli.add_flag("quick", "small grid + strided sweep for a fast smoke run");
  if (!cli.parse(argc, argv)) return std::nullopt;

  FigureOptions options;
  options.sizes.clear();
  for (const auto s : cli.get_int_list("sizes")) {
    if (s < 1) throw InvalidArgument("option --sizes: task counts must be >= 1");
    options.sizes.push_back(static_cast<std::size_t>(s));
  }
  options.stride = cli.get_count("stride", 1);
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.weight_cv = cli.get_double("weight-cv");
  options.csv_dir = cli.get_string("csv");
  // Fail before computing a possibly hours-long grid, not after: claim the
  // output directory up front (creating it when missing).
  if (!options.csv_dir.empty()) engine::ensure_output_directory(options.csv_dir);
  options.threads = cli.get_count("threads");
  options.eval_math = parse_eval_math(cli.get_string("eval-math"));
  if (cli.has_option("tasks")) options.tasks = cli.get_count("tasks", 1);
  if (cli.has_option("trials")) options.trials = cli.get_count("trials", 1);
  if (cli.has_option("downtimes")) {
    options.downtimes = cli.get_double_list("downtimes");
    for (const double d : options.downtimes) {
      if (d < 0.0) throw InvalidArgument("option --downtimes: downtimes must be >= 0");
    }
  }
  if (cli.get_flag("quick")) engine::apply_quick_options(options);
  return options;
}

TaskGraph make_instance(WorkflowKind kind, std::size_t size, const CostModel& cost_model,
                        const FigureOptions& options) {
  GeneratorConfig config;
  config.task_count = size;
  config.seed = options.seed + size;  // distinct instance per size, reproducible
  config.weight_cv = options.weight_cv;
  config.cost_model = cost_model;
  return generate_workflow(kind, config);
}

}  // namespace fpsched::bench
