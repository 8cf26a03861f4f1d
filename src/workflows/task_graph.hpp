// TaskGraph: a DAG whose vertices carry the paper's per-task costs.
//
// Task T_i has a fault-free weight w_i (seconds on the full platform), a
// checkpoint cost c_i (time to save its output), and a recovery cost r_i
// (time to reload a saved output). The experiments of Section 6 derive
// c_i from w_i (proportional or constant) and always set r_i = c_i.
//
// Storage is structure-of-arrays: dense weight/ckpt/recovery arrays plus
// one interned TypeId per task. A workflow has a handful of task types but
// up to 10^6 tasks, so tasks carry no per-task string at all. Every graph,
// generated workflow or theory gadget, is built by TaskGraphBuilder.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/graph.hpp"

namespace fpsched {

/// Interned task-type id; dense from 0 per graph. A type is a generator
/// specific tag (e.g. "mProjectPP") used by reports and generator tests.
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
  /// The empty graph; TaskGraphBuilder::finish() makes every other one.
  TaskGraph() = default;

  const Dag& dag() const { return dag_; }
  std::size_t task_count() const { return weights_.size(); }

  double weight(VertexId v) const { return weights_[v]; }
  double ckpt_cost(VertexId v) const { return ckpt_costs_[v]; }
  double recovery_cost(VertexId v) const { return recovery_costs_[v]; }
  const std::string& type(VertexId v) const { return types_.name(type_ids_[v]); }
  TypeId type_id(VertexId v) const { return type_ids_[v]; }

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

  /// Heap bytes of the instance (DAG CSR + task arrays + type table) —
  /// the number the perf bench reports as provenance.
  std::size_t memory_bytes() const;

 private:
  friend class TaskGraphBuilder;

  Dag dag_;
  std::vector<double> weights_;
  std::vector<double> ckpt_costs_;
  std::vector<double> recovery_costs_;
  std::vector<TypeId> type_ids_;
  TypeTable types_;
};

/// The one way to build a TaskGraph: interned types, a dense weight array
/// and edges forwarded to the streaming DagBuilder. Generators and theory
/// gadgets alike add tasks in vertex-id order, then edges, then finish().
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
