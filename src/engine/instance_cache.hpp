// Shared-instance execution support for the experiment engine.
//
// Every figure grid evaluates several policies (and often several failure
// rates, downtimes or cost models) on the *same* workflow instance.
// InstanceKey captures exactly the ScenarioSpec fields that determine the
// TaskGraph topology/weights and the linearizations — the failure model,
// cost model and policy are deliberately excluded, because the topology
// and weights do not depend on them (the cost model only rewrites
// c_i = r_i from the weights, see TaskGraph::apply_cost_model).
// InstanceCache materializes one instance per key: the graph is generated
// once and each linearization method is computed once on first use — so
// a worker that receives several cell groups sharing a key replays the
// cached state for every policy/cost cell instead of rebuilding it per
// cell (the lambda/downtime siblings of a cell already run as one group,
// see engine.hpp). Evaluator scratch is not cached here: it belongs to
// the engine worker, one workspace per worker rather than per instance.
// All cached state is a pure function of the key, so results are
// bit-identical to the uncached path.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "dag/linearize.hpp"
#include "engine/scenario.hpp"
#include "workflows/generator.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched::engine {

/// The spec fields that determine a scenario's instance (graph +
/// linearizations). Scenarios with equal keys can share an InstanceCache.
struct InstanceKey {
  WorkflowKind workflow = WorkflowKind::montage;
  std::size_t task_count = 0;
  std::uint64_t workflow_seed = 0;
  double weight_cv = 0.0;
  LinearizeOptions linearize;

  static InstanceKey of(const ScenarioSpec& spec);

  bool operator==(const InstanceKey&) const = default;
};

/// One materialized instance: the generated TaskGraph and lazily memoized
/// linearizations (one per method). Owned by a single engine worker; not
/// thread safe.
class InstanceCache {
 public:
  /// Generates the instance for `spec`'s key (with `spec`'s cost model
  /// applied, exactly as ScenarioSpec::instantiate would).
  explicit InstanceCache(const ScenarioSpec& spec);

  const InstanceKey& key() const { return key_; }

  /// The cached graph with `model`'s costs applied. Re-derives c_i/r_i
  /// only when the model differs from the one currently applied; the
  /// result is identical to generating the graph with `model` directly.
  const TaskGraph& graph_for(const CostModel& model);

  /// The memoized linearization for `method` (computed on first use with
  /// the key's LinearizeOptions). Orders depend only on topology and
  /// weights, so they are shared across every failure/cost-model cell.
  const std::vector<VertexId>& order(LinearizeMethod method);

 private:
  InstanceKey key_;
  TaskGraph graph_;
  CostModel applied_;
  std::array<std::optional<std::vector<VertexId>>, 3> orders_;
  LinearizeWorkspace linearize_workspace_;
};

}  // namespace fpsched::engine
