#include "workflows/task_graph.hpp"

#include <cmath>

#include "support/error.hpp"

namespace fpsched {

TypeId TypeTable::intern(std::string_view type) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == type) return static_cast<TypeId>(i);
  }
  names_.emplace_back(type);
  return static_cast<TypeId>(names_.size() - 1);
}

std::size_t TypeTable::memory_bytes() const {
  std::size_t total = names_.capacity() * sizeof(std::string);
  for (const std::string& name : names_) total += name.capacity();
  return total;
}

namespace {
void validate_costs(double weight, double ckpt, double recovery, std::size_t index) {
  const bool ok = std::isfinite(weight) && weight >= 0.0 && std::isfinite(ckpt) && ckpt >= 0.0 &&
                  std::isfinite(recovery) && recovery >= 0.0;
  ensure(ok, "task " + std::to_string(index) + " has negative or non-finite costs");
}
}  // namespace

TaskGraph::TaskGraph(Dag dag, std::vector<Task> tasks) : dag_(std::move(dag)) {
  ensure(dag_.vertex_count() == tasks.size(), "task list size must match DAG vertex count");
  const std::size_t n = tasks.size();
  weights_.reserve(n);
  ckpt_costs_.reserve(n);
  recovery_costs_.reserve(n);
  type_ids_.reserve(n);
  names_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task& task = tasks[i];
    validate_costs(task.weight, task.ckpt_cost, task.recovery_cost, i);
    weights_.push_back(task.weight);
    ckpt_costs_.push_back(task.ckpt_cost);
    recovery_costs_.push_back(task.recovery_cost);
    type_ids_.push_back(types_.intern(task.type));
    names_.push_back(std::move(task.name));
  }
}

std::string TaskGraph::name(VertexId v) const {
  if (!names_.empty()) return names_[v];
  return types_.name(type_ids_[v]) + "_" + std::to_string(v);
}

Task TaskGraph::task(VertexId v) const {
  return {name(v), types_.name(type_ids_[v]), weights_[v], ckpt_costs_[v], recovery_costs_[v]};
}

double TaskGraph::total_weight() const {
  double total = 0.0;
  for (const double w : weights_) total += w;
  return total;
}

double TaskGraph::average_weight() const {
  return weights_.empty() ? 0.0 : total_weight() / static_cast<double>(weights_.size());
}

void TaskGraph::apply_cost_model(const CostModel& model) {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    const double cost = model.kind == CostModel::Kind::proportional ? model.parameter * weights_[i]
                                                                    : model.parameter;
    ensure(std::isfinite(cost) && cost >= 0.0, "cost model produced an invalid cost");
    ckpt_costs_[i] = cost;
    recovery_costs_[i] = cost;
  }
}

void TaskGraph::set_costs(VertexId v, double ckpt_cost, double recovery_cost) {
  ensure(v < weights_.size(), "set_costs: vertex out of range");
  ckpt_costs_[v] = ckpt_cost;
  recovery_costs_[v] = recovery_cost;
  validate_costs(weights_[v], ckpt_costs_[v], recovery_costs_[v], v);
}

void TaskGraph::set_weight(VertexId v, double weight) {
  ensure(v < weights_.size(), "set_weight: vertex out of range");
  weights_[v] = weight;
  validate_costs(weights_[v], ckpt_costs_[v], recovery_costs_[v], v);
}

std::size_t TaskGraph::memory_bytes() const {
  std::size_t total = dag_.memory_bytes() + weights_.capacity() * sizeof(double) +
                      ckpt_costs_.capacity() * sizeof(double) +
                      recovery_costs_.capacity() * sizeof(double) +
                      type_ids_.capacity() * sizeof(TypeId) + types_.memory_bytes() +
                      names_.capacity() * sizeof(std::string);
  for (const std::string& name : names_) total += name.capacity();
  return total;
}

void TaskGraphBuilder::reserve(std::size_t tasks, std::size_t edges) {
  dag_.reserve(tasks, edges);
  weights_.reserve(tasks);
  type_ids_.reserve(tasks);
}

VertexId TaskGraphBuilder::add_task(TypeId type, double weight) {
  ensure(type < types_.size(), "add_task: unknown type id");
  const VertexId id = dag_.add_vertex();
  weights_.push_back(weight);
  type_ids_.push_back(type);
  return id;
}

TaskGraph TaskGraphBuilder::finish() && {
  for (std::size_t i = 0; i < weights_.size(); ++i) validate_costs(weights_[i], 0.0, 0.0, i);
  TaskGraph graph;
  graph.dag_ = std::move(dag_).build();
  graph.weights_ = std::move(weights_);
  graph.ckpt_costs_.assign(graph.weights_.size(), 0.0);
  graph.recovery_costs_.assign(graph.weights_.size(), 0.0);
  graph.type_ids_ = std::move(type_ids_);
  graph.types_ = std::move(types_);
  return graph;
}

}  // namespace fpsched
