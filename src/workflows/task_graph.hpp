// TaskGraph: a DAG whose vertices carry the paper's per-task costs.
//
// Task T_i has a fault-free weight w_i (seconds on the full platform), a
// checkpoint cost c_i (time to save its output), and a recovery cost r_i
// (time to reload a saved output). The experiments of Section 6 derive
// c_i from w_i (proportional or constant) and always set r_i = c_i.
//
// Storage is structure-of-arrays: dense weight/ckpt/recovery arrays plus
// one interned TypeId per task. A workflow has a handful of task types but
// up to 10^6 tasks, so per-task strings would dominate the instance
// footprint; instead names are synthesized on demand ("<type>_<id>", the
// scheme every generator uses) unless a caller supplied explicit names.
// The AoS `Task` view survives as a thin value-returning shim.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/graph.hpp"

namespace fpsched {

struct Task {
  std::string name;
  /// Task type tag (generator specific; e.g. "mProjectPP"). Used for
  /// reporting and generator tests.
  std::string type;
  double weight = 0.0;         // w_i, fault-free execution time
  double ckpt_cost = 0.0;      // c_i
  double recovery_cost = 0.0;  // r_i
};

/// Interned task-type id; dense from 0 per graph.
using TypeId = std::uint32_t;

/// Per-graph registry of task type strings. Workflows have a dozen types
/// at most, so interning is a linear scan — no hash table worth carrying.
class TypeTable {
 public:
  /// Returns the id of `type`, adding it if unseen.
  TypeId intern(std::string_view type);

  const std::string& name(TypeId id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

  std::size_t memory_bytes() const;

 private:
  std::vector<std::string> names_;
};

/// How checkpoint/recovery costs are derived from weights.
struct CostModel {
  enum class Kind { proportional, constant } kind = Kind::proportional;
  /// `proportional`: c_i = r_i = factor * w_i. `constant`: c_i = r_i = value.
  double parameter = 0.1;

  static CostModel proportional(double factor) { return {Kind::proportional, factor}; }
  static CostModel constant(double value) { return {Kind::constant, value}; }

  /// Two models derive identical costs iff kind and parameter agree (lets
  /// the engine's instance cache skip redundant apply_cost_model calls).
  bool operator==(const CostModel&) const = default;
};

class TaskGraphBuilder;

class TaskGraph {
 public:
  TaskGraph() = default;
  /// Takes ownership of a frozen DAG and its per-vertex tasks; sizes must
  /// match and all costs must be non-negative and finite. This AoS entry
  /// point interns the types and keeps the explicit names (used by the
  /// file loader and the synthetic gadgets whose names are not
  /// "<type>_<id>"); generators go through TaskGraphBuilder instead.
  TaskGraph(Dag dag, std::vector<Task> tasks);

  const Dag& dag() const { return dag_; }
  std::size_t task_count() const { return weights_.size(); }

  double weight(VertexId v) const { return weights_[v]; }
  double ckpt_cost(VertexId v) const { return ckpt_costs_[v]; }
  double recovery_cost(VertexId v) const { return recovery_costs_[v]; }
  const std::string& type(VertexId v) const { return types_.name(type_ids_[v]); }
  TypeId type_id(VertexId v) const { return type_ids_[v]; }

  /// Task name: the stored name when one was supplied, otherwise the
  /// synthesized "<type>_<id>" every generator uses. Returns by value
  /// because synthesized names are not materialized.
  std::string name(VertexId v) const;

  /// AoS view of one task, assembled on demand.
  Task task(VertexId v) const;

  /// Dense per-task arrays, indexed by vertex id. These are the storage —
  /// evaluator/heuristic workspaces gather from them without copies.
  std::span<const double> weights_view() const { return weights_; }
  std::span<const double> ckpt_costs_view() const { return ckpt_costs_; }
  std::span<const double> recovery_costs_view() const { return recovery_costs_; }
  std::span<const TypeId> type_ids() const { return type_ids_; }
  const TypeTable& types() const { return types_; }

  /// All weights as a dense vector (indexed by vertex id).
  std::vector<double> weights() const { return {weights_.begin(), weights_.end()}; }

  /// T_inf of the paper: the failure-free, checkpoint-free execution time,
  /// i.e. the sum of all weights (tasks are serialized on the platform).
  double total_weight() const;

  double average_weight() const;

  /// Re-derives every c_i/r_i from the cost model (r_i = c_i, as in all of
  /// the paper's experiments).
  void apply_cost_model(const CostModel& model);

  /// Sets c_i and r_i for one task (used by theory gadgets where r != c).
  void set_costs(VertexId v, double ckpt_cost, double recovery_cost);
  void set_weight(VertexId v, double weight);

  /// Heap bytes of the instance (DAG CSR + task arrays + type table +
  /// stored names) — the number the perf bench reports as provenance.
  std::size_t memory_bytes() const;

 private:
  friend class TaskGraphBuilder;

  Dag dag_;
  std::vector<double> weights_;
  std::vector<double> ckpt_costs_;
  std::vector<double> recovery_costs_;
  std::vector<TypeId> type_ids_;
  TypeTable types_;
  /// Explicit per-task names; empty when names are synthesized.
  std::vector<std::string> names_;
};

/// Streaming construction path for generators: interned types, dense
/// weight array, edges forwarded to the streaming DagBuilder — no Task
/// structs and no name strings are ever materialized.
class TaskGraphBuilder {
 public:
  /// Pre-sizes every array for a known instance shape.
  void reserve(std::size_t tasks, std::size_t edges);

  TypeId intern_type(std::string_view type) { return types_.intern(type); }

  VertexId add_task(TypeId type, double weight);
  void add_edge(VertexId from, VertexId to) { dag_.add_edge(from, to); }

  std::size_t task_count() const { return weights_.size(); }

  /// Freezes the DAG (validation, CSRs, topo order, sources and sinks) and
  /// assembles the SoA TaskGraph. Checkpoint/recovery costs start at 0;
  /// callers apply a cost model afterwards.
  TaskGraph finish() &&;

 private:
  DagBuilder dag_;
  std::vector<double> weights_;
  std::vector<TypeId> type_ids_;
  TypeTable types_;
};

}  // namespace fpsched
