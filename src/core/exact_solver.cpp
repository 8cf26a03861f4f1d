#include "core/exact_solver.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace fpsched {

namespace {

class LinearizationEnumerator {
 public:
  LinearizationEnumerator(const Dag& dag,
                          const std::function<void(const std::vector<VertexId>&)>& visit,
                          std::uint64_t limit)
      : dag_(dag), visit_(visit), limit_(limit), remaining_(dag.vertex_count()) {
    for (VertexId v = 0; v < dag_.vertex_count(); ++v) {
      remaining_[v] = static_cast<std::uint32_t>(dag_.in_degree(v));
      if (remaining_[v] == 0) ready_.push_back(v);
    }
    prefix_.reserve(dag_.vertex_count());
  }

  std::uint64_t run() {
    recurse();
    return count_;
  }

 private:
  void recurse() {
    if (prefix_.size() == dag_.vertex_count()) {
      ++count_;
      if (limit_ != 0 && count_ > limit_)
        throw InvalidArgument("linearization count exceeds the configured limit");
      if (visit_) visit_(prefix_);
      return;
    }
    // Try each currently-ready vertex (snapshot: ready_ mutates below).
    const std::vector<VertexId> snapshot(ready_.begin(), ready_.end());
    for (const VertexId v : snapshot) {
      // Remove v from the ready set.
      ready_.erase(std::find(ready_.begin(), ready_.end(), v));
      prefix_.push_back(v);
      std::size_t enabled = 0;
      for (const VertexId s : dag_.successors(v)) {
        if (--remaining_[s] == 0) {
          ready_.push_back(s);
          ++enabled;
        }
      }
      recurse();
      // Undo.
      for (const VertexId s : dag_.successors(v)) ++remaining_[s];
      ready_.resize(ready_.size() - enabled);
      prefix_.pop_back();
      ready_.push_back(v);
    }
  }

  const Dag& dag_;
  const std::function<void(const std::vector<VertexId>&)>& visit_;
  std::uint64_t limit_;
  std::uint64_t count_ = 0;
  std::vector<std::uint32_t> remaining_;
  std::vector<VertexId> ready_;
  std::vector<VertexId> prefix_;
};

}  // namespace

std::uint64_t for_each_linearization(
    const Dag& dag, const std::function<void(const std::vector<VertexId>&)>& visit,
    std::uint64_t limit) {
  return LinearizationEnumerator(dag, visit, limit).run();
}

std::uint64_t count_linearizations(const Dag& dag, std::uint64_t limit) {
  return for_each_linearization(dag, nullptr, limit);
}

ExactSolution solve_exact_fixed_order(const ScheduleEvaluator& evaluator,
                                      const std::vector<VertexId>& order) {
  const TaskGraph& graph = evaluator.graph();
  const std::size_t n = graph.task_count();
  ensure(n >= 1, "solve_exact_fixed_order needs at least one task");
  ensure(n <= kExactMaxTasks,
         "fixed-order exact search limited to " + std::to_string(kExactMaxTasks) + " tasks");
  Schedule candidate = make_schedule(order);
  validate_schedule(graph, candidate);
  const auto set_flags = [&](std::uint64_t mask) {
    for (std::size_t b = 0; b < n; ++b)
      candidate.checkpointed[order[b]] = static_cast<std::uint8_t>((mask >> b) & 1);
  };

  // Masks ascend and only a strictly smaller value replaces the best, so
  // ties keep the smallest mask.
  const std::uint64_t subsets = 1ull << n;
  EvaluatorWorkspace workspace;
  double best_value = std::numeric_limits<double>::infinity();
  std::uint64_t best_mask = 0;
  for (std::uint64_t mask = 0; mask < subsets; ++mask) {
    set_flags(mask);
    const double value = evaluator.expected_makespan(candidate, workspace, /*validate=*/false);
    if (value < best_value) {
      best_value = value;
      best_mask = mask;
    }
  }

  set_flags(best_mask);
  ExactSolution solution;
  solution.schedule = std::move(candidate);
  solution.expected_makespan = best_value;
  solution.schedules_evaluated = subsets;
  solution.linearizations_seen = 1;
  return solution;
}

ExactSolution solve_exact(const ScheduleEvaluator& evaluator) {
  const TaskGraph& graph = evaluator.graph();
  ensure(graph.task_count() >= 1, "solve_exact needs at least one task");
  // Counting is cheap next to a search: reject an over-limit DAG (throws)
  // before evaluating any schedule.
  count_linearizations(graph.dag(), kExactMaxLinearizations);

  ExactSolution best;
  best.expected_makespan = std::numeric_limits<double>::infinity();
  std::uint64_t evaluated = 0;
  const std::uint64_t linearizations =
      for_each_linearization(graph.dag(), [&](const std::vector<VertexId>& order) {
        const ExactSolution candidate = solve_exact_fixed_order(evaluator, order);
        evaluated += candidate.schedules_evaluated;
        if (candidate.expected_makespan < best.expected_makespan) {
          best.schedule = candidate.schedule;
          best.expected_makespan = candidate.expected_makespan;
        }
      });
  best.schedules_evaluated = evaluated;
  best.linearizations_seen = linearizations;
  return best;
}

}  // namespace fpsched
