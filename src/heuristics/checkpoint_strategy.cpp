#include "heuristics/checkpoint_strategy.hpp"

#include <algorithm>
#include <numeric>

#include "dag/traversal.hpp"
#include "support/error.hpp"

namespace fpsched {

std::string to_string(CkptStrategy strategy) {
  switch (strategy) {
    case CkptStrategy::never: return "CkptNvr";
    case CkptStrategy::always: return "CkptAlws";
    case CkptStrategy::by_weight: return "CkptW";
    case CkptStrategy::by_cost: return "CkptC";
    case CkptStrategy::by_outweight: return "CkptD";
    case CkptStrategy::periodic: return "CkptPer";
  }
  return "?";
}

std::span<const CkptStrategy> all_ckpt_strategies() {
  static constexpr CkptStrategy kAll[] = {
      CkptStrategy::never,     CkptStrategy::always,      CkptStrategy::by_weight,
      CkptStrategy::by_cost,   CkptStrategy::by_outweight, CkptStrategy::periodic,
  };
  return kAll;
}

bool is_budgeted(CkptStrategy strategy) {
  switch (strategy) {
    case CkptStrategy::never:
    case CkptStrategy::always: return false;
    default: return true;
  }
}

CheckpointPlacer::CheckpointPlacer(const TaskGraph& graph, std::span<const VertexId> order,
                                   CkptStrategy strategy)
    : graph_(&graph), order_(order), strategy_(strategy) {
  const std::size_t n = graph.task_count();
  const auto rank = [&](auto better) {
    ranked_.resize(n);
    std::iota(ranked_.begin(), ranked_.end(), 0);
    std::stable_sort(ranked_.begin(), ranked_.end(), better);
  };
  switch (strategy) {
    case CkptStrategy::by_weight:
      rank([&](VertexId a, VertexId b) {
        return graph.weight(a) > graph.weight(b);  // longest computations first
      });
      break;
    case CkptStrategy::by_cost:
      rank([&](VertexId a, VertexId b) {
        return graph.ckpt_cost(a) < graph.ckpt_cost(b);  // cheapest checkpoints first
      });
      break;
    case CkptStrategy::by_outweight: {
      const std::vector<double> out = direct_outweights(graph.dag(), graph.weights_view());
      rank([&](VertexId a, VertexId b) {
        return out[a] > out[b];  // heaviest successor sets first
      });
      break;
    }
    case CkptStrategy::periodic:
      ensure(order.size() == n, "periodic placement needs the linearization");
      break;
    case CkptStrategy::never:
    case CkptStrategy::always: break;
    default: throw InvalidArgument("unknown checkpoint strategy");
  }
}

std::vector<std::uint8_t> CheckpointPlacer::flags(std::size_t budget) const {
  const std::size_t n = graph_->task_count();
  std::vector<std::uint8_t> flags(n, strategy_ == CkptStrategy::always ? 1 : 0);
  // The sorting strategies (ranked_ is empty for the others).
  for (std::size_t i = 0; i < std::min(budget, ranked_.size()); ++i) flags[ranked_[i]] = 1;
  // x = 1..N-1 is empty for N < 2.
  if (strategy_ != CkptStrategy::periodic || budget < 2 || n == 0) return flags;
  const double total = graph_->total_weight();
  if (total <= 0.0) return flags;
  const double period = total / static_cast<double>(budget);
  double elapsed = 0.0;
  std::size_t next_mark = 1;
  for (const VertexId v : order_) {
    elapsed += graph_->weight(v);
    // This task is the first to complete after mark x * W / N.
    while (next_mark < budget && elapsed >= period * static_cast<double>(next_mark)) {
      flags[v] = 1;
      ++next_mark;
    }
  }
  return flags;
}

std::vector<std::uint8_t> place_checkpoints(const TaskGraph& graph,
                                            std::span<const VertexId> order,
                                            CkptStrategy strategy, std::size_t budget) {
  return CheckpointPlacer(graph, order, strategy).flags(budget);
}

Schedule make_heuristic_schedule(const TaskGraph& graph, std::vector<VertexId> order,
                                 CkptStrategy strategy, std::size_t budget) {
  std::vector<std::uint8_t> flags = place_checkpoints(graph, order, strategy, budget);
  return Schedule(std::move(order), std::move(flags));
}

}  // namespace fpsched
