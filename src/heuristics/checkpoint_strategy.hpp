// Checkpoint placement strategies from Section 5 of the paper.
//
// CkptNvr / CkptAlws are the baselines. CkptW / CkptC / CkptD checkpoint
// the top-N tasks by, respectively, decreasing weight, increasing
// checkpoint cost, and decreasing outweight (sum of successor weights).
// CkptPer mimics periodic checkpointing: on the fault-free timeline of the
// linearization, it checkpoints the task completing earliest after
// x * W / N for x = 1..N-1, W = total weight.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched {

enum class CkptStrategy : std::uint8_t {
  never,        // CkptNvr
  always,       // CkptAlws
  by_weight,    // CkptW
  by_cost,      // CkptC
  by_outweight, // CkptD
  periodic,     // CkptPer
};

/// Paper names: "CkptNvr", "CkptAlws", "CkptW", "CkptC", "CkptD", "CkptPer".
std::string to_string(CkptStrategy strategy);

std::span<const CkptStrategy> all_ckpt_strategies();

/// True for the strategies parameterized by a checkpoint budget N
/// (by_weight / by_cost / by_outweight / periodic).
bool is_budgeted(CkptStrategy strategy);

/// One strategy's placement for every budget of a sweep. The sorting
/// strategies rank the tasks once, with a stable sort that breaks key ties
/// by vertex id, and budget N checkpoints the first N tasks of that
/// ranking; so consecutive budgets differ only in the tasks ranked between
/// them. `order` is the linearization (read by `periodic` only, whose
/// flags are recomputed per budget) and must outlive the placer.
class CheckpointPlacer {
 public:
  CheckpointPlacer(const TaskGraph& graph, std::span<const VertexId> order,
                   CkptStrategy strategy);

  /// The checkpoint flags (indexed by vertex id) of `budget`; N for the
  /// budgeted strategies and ignored otherwise. For `periodic`, the number
  /// of checkpoints taken is at most budget - 1 (the paper places marks at
  /// x*W/N, x = 1..N-1).
  std::vector<std::uint8_t> flags(std::size_t budget) const;

 private:
  const TaskGraph* graph_;
  std::span<const VertexId> order_;
  CkptStrategy strategy_;
  std::vector<VertexId> ranked_;  // the sorting strategies' ranking, best first
};

/// The flags of one budget: CheckpointPlacer(graph, order,
/// strategy).flags(budget). `order` is the linearization (needed by
/// `periodic`; ignored by the sorting strategies, which rank all tasks
/// globally as in the paper).
std::vector<std::uint8_t> place_checkpoints(const TaskGraph& graph,
                                            std::span<const VertexId> order,
                                            CkptStrategy strategy, std::size_t budget);

/// Convenience: full schedule from order + strategy + budget.
Schedule make_heuristic_schedule(const TaskGraph& graph, std::vector<VertexId> order,
                                 CkptStrategy strategy, std::size_t budget);

}  // namespace fpsched
