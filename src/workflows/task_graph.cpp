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

std::size_t TaskGraph::memory_bytes() const {
  return dag_.memory_bytes() + weights_.capacity() * sizeof(double) +
         ckpt_costs_.capacity() * sizeof(double) + recovery_costs_.capacity() * sizeof(double) +
         type_ids_.capacity() * sizeof(TypeId) + types_.memory_bytes();
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
