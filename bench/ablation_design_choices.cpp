// Ablations for the design choices DESIGN.md calls out:
//  (1) N-sweep stride — solution quality vs evaluation count trade-off
//      (the paper sweeps exhaustively; how much does subsampling cost?);
//  (2) outweight definition — the paper's direct-successor sum vs the
//      transitive-descendants variant as the DF/BF priority;
//  (3) weight variability — how the generator's weight_cv affects the
//      heuristic ranking stability.
//
// Every section shards its ablation cells across the experiment engine's
// workers and prints rows in cell order, so output does not depend on the
// thread count (the per-cell wall-clock column does, of course).
#include <chrono>
#include <iostream>

#include "engine/engine.hpp"
#include "engine/experiment.hpp"
#include "heuristics/greedy.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

using namespace fpsched;
using engine::FigureOptions;

namespace {

/// The paper's instance of `kind` at `size` (c = 0.1 w), generated as
/// every figure scenario's is (seed + size).
TaskGraph make_instance(WorkflowKind kind, std::size_t size, const FigureOptions& options) {
  engine::ScenarioSpec spec;
  spec.workflow = kind;
  spec.task_count = size;
  spec.workflow_seed = options.seed;
  spec.weight_cv = options.weight_cv;
  return spec.instantiate();
}

/// Worker-local heuristic options: sweeps run on the cell's workspace,
/// joined by idle engine workers.
HeuristicOptions cell_options(const engine::ExperimentEngine& eng, const FigureOptions& options,
                              std::size_t stride, EvaluatorWorkspace& ws) {
  HeuristicOptions heuristic = eng.worker_options(ws);
  heuristic.stride = stride;
  heuristic.eval = options.eval_math;
  return heuristic;
}

void stride_ablation(std::ostream& os, const FigureOptions& options,
                     const engine::ExperimentEngine& eng) {
  os << "\n--- Ablation 1: N-sweep stride (DF-CkptW, CyberShake, lambda=1e-3) ---\n";
  const std::vector<std::size_t> sizes{100, 300, 700};
  const std::vector<std::size_t> strides{1, 4, 16, 64};

  struct Cell {
    std::size_t evaluations = 0;
    double expected = 0.0;
    double ms = 0.0;
  };
  std::vector<Cell> cells(sizes.size() * strides.size());
  eng.for_each(cells.size(), [&](std::size_t i, EvaluatorWorkspace& ws) {
    const std::size_t size = sizes[i / strides.size()];
    const std::size_t stride = strides[i % strides.size()];
    const TaskGraph graph = make_instance(WorkflowKind::cybershake, size, options);
    const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
    const auto start = std::chrono::steady_clock::now();
    const HeuristicResult result =
        run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight},
                      cell_options(eng, options, stride, ws));
    cells[i].ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    cells[i].evaluations = result.curve.size();
    cells[i].expected = result.evaluation.expected_makespan;
  });

  Table table({"tasks", "stride", "evaluations", "E[makespan]", "quality loss", "sweep ms"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double exhaustive = cells[(i / strides.size()) * strides.size()].expected;
    table.row()
        .cell(sizes[i / strides.size()])
        .cell(strides[i % strides.size()])
        .cell(cells[i].evaluations)
        .cell(cells[i].expected, 2)
        .cell(cells[i].expected / exhaustive - 1.0, 6)
        .cell(cells[i].ms, 1);
  }
  table.print(os);
  os << "(The budget curve is flat near its optimum: large strides trade a tiny\n"
        " quality loss for an order-of-magnitude fewer evaluations.)\n";
}

void outweight_ablation(std::ostream& os, const FigureOptions& options,
                        const engine::ExperimentEngine& eng) {
  os << "\n--- Ablation 2: outweight definition for the DF priority ---\n";
  const std::vector<std::size_t> sizes{100, 300};
  const auto kinds = all_workflow_kinds();

  struct Cell {
    double direct = 0.0;
    double descendants = 0.0;
  };
  std::vector<Cell> cells(kinds.size() * sizes.size());
  eng.for_each(cells.size(), [&](std::size_t i, EvaluatorWorkspace& ws) {
    const WorkflowKind kind = kinds[i / sizes.size()];
    const std::size_t size = sizes[i % sizes.size()];
    const TaskGraph graph = make_instance(kind, size, options);
    const ScheduleEvaluator evaluator(graph, FailureModel(paper_lambda(kind), 0.0));
    HeuristicOptions direct = cell_options(eng, options, options.stride, ws);
    direct.linearize.outweight = OutweightMode::direct;
    HeuristicOptions transitive = direct;
    transitive.linearize.outweight = OutweightMode::descendants;
    cells[i].direct =
        run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight}, direct)
            .evaluation.ratio;
    cells[i].descendants =
        run_heuristic(evaluator, {LinearizeMethod::depth_first, CkptStrategy::by_weight},
                      transitive)
            .evaluation.ratio;
  });

  Table table({"workflow", "tasks", "direct (paper)", "descendants", "difference"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.row()
        .cell(to_string(kinds[i / sizes.size()]))
        .cell(sizes[i % sizes.size()])
        .cell(cells[i].direct, 4)
        .cell(cells[i].descendants, 4)
        .cell(cells[i].descendants - cells[i].direct, 5);
  }
  table.print(os);
}

void weight_cv_ablation(std::ostream& os, const FigureOptions& options,
                        const engine::ExperimentEngine& eng) {
  os << "\n--- Ablation 3: task-weight variability (Montage, 200 tasks) ---\n";
  const std::vector<double> cvs{0.0, 0.2, 0.5, 1.0};
  const std::vector<CkptStrategy> strategies{CkptStrategy::never, CkptStrategy::always,
                                             CkptStrategy::by_weight, CkptStrategy::by_cost,
                                             CkptStrategy::periodic};

  std::vector<std::vector<double>> ratios(cvs.size(), std::vector<double>(strategies.size()));
  eng.for_each(cvs.size(), [&](std::size_t i, EvaluatorWorkspace& ws) {
    FigureOptions local = options;
    local.weight_cv = cvs[i];
    const TaskGraph graph = make_instance(WorkflowKind::montage, 200, local);
    const ScheduleEvaluator evaluator(graph, FailureModel(1e-3, 0.0));
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      ratios[i][s] = run_heuristic(evaluator, {LinearizeMethod::depth_first, strategies[s]},
                                   cell_options(eng, options, options.stride, ws))
                         .evaluation.ratio;
    }
  });

  Table table({"weight cv", "CkptNvr", "CkptAlws", "CkptW", "CkptC", "CkptPer"});
  for (std::size_t i = 0; i < cvs.size(); ++i) {
    table.row()
        .cell(cvs[i], 2)
        .cell(ratios[i][0], 4)
        .cell(ratios[i][1], 4)
        .cell(ratios[i][2], 4)
        .cell(ratios[i][3], 4)
        .cell(ratios[i][4], 4);
  }
  table.print(os);
  os << "(Higher weight skew widens the gap between structure-aware strategies\n"
        " and CkptPer/CkptAlws.)\n";
}

void greedy_extension(std::ostream& os, const FigureOptions& options,
                      const engine::ExperimentEngine& eng) {
  os << "\n--- Extension: evaluator-guided greedy search vs the paper's heuristics ---\n";
  const auto kinds = all_workflow_kinds();
  const std::size_t size = 150;

  struct Cell {
    double best14 = 0.0;
    std::string winner;
    double greedy = 0.0;
    std::size_t greedy_ckpts = 0;
  };
  std::vector<Cell> cells(kinds.size());
  eng.for_each(cells.size(), [&](std::size_t i, EvaluatorWorkspace& ws) {
    const WorkflowKind kind = kinds[i];
    const TaskGraph graph = make_instance(kind, size, options);
    const ScheduleEvaluator evaluator(graph, FailureModel(paper_lambda(kind), 0.0));
    const auto results =
        run_heuristics(evaluator, all_heuristics(), cell_options(eng, options, options.stride, ws));
    const HeuristicResult& best = results[best_result_index(results)];
    cells[i].best14 = best.evaluation.expected_makespan;
    cells[i].winner = best.spec.name();

    const auto order = linearize(graph.dag(), graph.weights(), LinearizeMethod::depth_first);
    const GreedyResult greedy = greedy_checkpoint_search(evaluator, order);
    cells[i].greedy = greedy.expected_makespan;
    cells[i].greedy_ckpts = greedy.schedule.checkpoint_count();
  });

  Table table({"workflow", "tasks", "best of 14", "winner", "greedy (DF order)", "improvement",
               "greedy ckpts"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.row()
        .cell(to_string(kinds[i]))
        .cell(size)
        .cell(cells[i].best14, 2)
        .cell(cells[i].winner)
        .cell(cells[i].greedy, 2)
        .cell(1.0 - cells[i].greedy / cells[i].best14, 5)
        .cell(cells[i].greedy_ckpts);
  }
  table.print(os);
  os << "(Greedy insert/remove over the checkpoint set, guided by the Theorem-3\n"
        " evaluator — our extension; it bounds how much headroom the paper's\n"
        " ranked strategies leave on the table for a fixed linearization.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Design-choice ablations: sweep stride, outweight mode, weight variability, "
                "greedy extension.");
  try {
    engine::add_figure_options(cli);
    cli.add_option("threads", "0", "engine worker threads (0 = all cores or FPSCHED_THREADS, "
                                   "1 = serial); only the timing columns depend on it");
    if (!cli.parse(argc, argv)) return 0;
    const FigureOptions options = engine::read_figure_options(cli);
    const engine::ExperimentEngine eng({.threads = cli.get_count("threads")});
    std::cout << "Design-choice ablations\n";
    stride_ablation(std::cout, options, eng);
    outweight_ablation(std::cout, options, eng);
    weight_cv_ablation(std::cout, options, eng);
    greedy_extension(std::cout, options, eng);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
