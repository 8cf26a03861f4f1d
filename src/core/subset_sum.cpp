#include "core/subset_sum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace fpsched {

SubsetSumReduction reduce_subset_sum(const SubsetSumInstance& instance, double lambda) {
  ensure(!instance.values.empty(), "subset-sum instance needs values");
  std::int64_t sum = 0;
  std::int64_t min_value = instance.values.front();
  for (const std::int64_t v : instance.values) {
    ensure(v > 0, "subset-sum values must be strictly positive");
    sum += v;
    min_value = std::min(min_value, v);
  }
  ensure(instance.target > 0 && instance.target <= sum, "subset-sum target must lie in (0, sum]");
  // Values above the target can never join the subset, and the paper's
  // c_i > 0 argument silently assumes w_i <= X; a standard preprocessing
  // step drops oversized values, so we require it here.
  for (const std::int64_t v : instance.values)
    ensure(v <= instance.target,
           "Theorem 2's construction needs w_i <= X; drop values above the target first");
  if (lambda <= 0.0) lambda = 1.0 / static_cast<double>(min_value);
  ensure(lambda >= 1.0 / static_cast<double>(min_value),
         "Theorem 2 requires lambda >= 1 / min_i w_i");

  const double x = static_cast<double>(instance.target);
  TaskGraphBuilder builder;
  const TypeId type = builder.intern_type("gadget");
  for (const std::int64_t value : instance.values) {
    builder.add_task(type, static_cast<double>(value));
  }
  const VertexId sink = builder.add_task(type, 0.0);
  for (VertexId v = 0; v < sink; ++v) builder.add_edge(v, sink);
  TaskGraph graph = std::move(builder).finish();
  for (VertexId v = 0; v < sink; ++v) {
    const double w = graph.weight(v);
    const double c = (x - w) + std::log(lambda * w + std::exp(-lambda * x)) / lambda;
    ensure(c > 0.0, "reduction produced a non-positive checkpoint cost");
    graph.set_costs(v, c, 0.0);
  }

  return SubsetSumReduction{
      std::move(graph),
      FailureModel(lambda, 0.0),
      /*target=*/x,
      /*sum=*/static_cast<double>(sum),
      /*threshold=*/lambda * std::exp(lambda * x) * (static_cast<double>(sum) - x) +
          std::expm1(lambda * x),
  };
}

double gadget_expected_time(const SubsetSumReduction& reduction, double non_ckpt_sum) {
  const double lambda = reduction.model.lambda();
  return lambda * std::exp(lambda * reduction.target) * (reduction.sum - non_ckpt_sum) +
         std::expm1(lambda * non_ckpt_sum);
}

bool gadget_reaches_threshold(const SubsetSumReduction& reduction, double tolerance) {
  const std::size_t n = reduction.graph.task_count() - 1;  // sources
  ensure(n <= 24, "gadget enumeration limited to 24 sources");
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    // mask selects the NON-checkpointed set; Corollary 2 only needs its sum.
    double non_ckpt_sum = 0.0;
    for (std::size_t b = 0; b < n; ++b) {
      if (mask & (1ull << b)) non_ckpt_sum += reduction.graph.weight(static_cast<VertexId>(b));
    }
    best = std::min(best, gadget_expected_time(reduction, non_ckpt_sum));
  }
  return relative_difference(best, reduction.threshold) <= tolerance;
}

bool subset_sum_solvable(const SubsetSumInstance& instance) {
  ensure(instance.target >= 0, "target must be non-negative");
  const std::size_t target = static_cast<std::size_t>(instance.target);
  std::vector<bool> reachable(target + 1, false);
  reachable[0] = true;
  for (const std::int64_t value : instance.values) {
    ensure(value > 0, "subset-sum values must be strictly positive");
    const std::size_t v = static_cast<std::size_t>(value);
    for (std::size_t s = target; s >= v; --s) {
      if (reachable[s - v]) reachable[s] = true;
    }
  }
  return reachable[target];
}

}  // namespace fpsched
