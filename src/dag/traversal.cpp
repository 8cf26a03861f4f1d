#include "dag/traversal.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace fpsched {

std::vector<std::uint32_t> vertex_levels(const Dag& dag) {
  std::vector<std::uint32_t> level(dag.vertex_count(), 0);
  for (const VertexId v : dag.topological_order()) {
    for (const VertexId p : dag.predecessors(v)) {
      level[v] = std::max(level[v], level[p] + 1);
    }
  }
  return level;
}

Reachability::Reachability(const Dag& dag)
    : n_(dag.vertex_count()), words_((n_ + 63) / 64), bits_(n_ * words_, 0) {
  // Reverse topological sweep: desc(v) = union over successors s of
  // ({s} | desc(s)).
  const auto topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const VertexId v = *it;
    std::uint64_t* row = bits_.data() + static_cast<std::size_t>(v) * words_;
    for (const VertexId s : dag.successors(v)) {
      row[s / 64] |= (1ull << (s % 64));
      const std::uint64_t* srow = bits_.data() + static_cast<std::size_t>(s) * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] |= srow[w];
    }
  }
}

bool Reachability::reaches(VertexId ancestor, VertexId descendant) const {
  const std::uint64_t* row = bits_.data() + static_cast<std::size_t>(ancestor) * words_;
  return (row[descendant / 64] >> (descendant % 64)) & 1ull;
}

std::size_t Reachability::descendant_count(VertexId v) const {
  const std::uint64_t* row = bits_.data() + static_cast<std::size_t>(v) * words_;
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_; ++w) count += std::popcount(row[w]);
  return count;
}

double Reachability::descendant_weight(VertexId v, std::span<const double> weights) const {
  ensure(weights.size() == n_, "weights size must match vertex count");
  const std::uint64_t* row = bits_.data() + static_cast<std::size_t>(v) * words_;
  double total = 0.0;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bitsword = row[w];
    while (bitsword != 0) {
      const int bit = std::countr_zero(bitsword);
      total += weights[w * 64 + static_cast<std::size_t>(bit)];
      bitsword &= bitsword - 1;
    }
  }
  return total;
}

std::vector<double> direct_outweights(const Dag& dag, std::span<const double> weights) {
  ensure(weights.size() == dag.vertex_count(), "weights size must match vertex count");
  std::vector<double> out(dag.vertex_count(), 0.0);
  for (VertexId v = 0; v < dag.vertex_count(); ++v) {
    for (const VertexId s : dag.successors(v)) out[v] += weights[s];
  }
  return out;
}

std::vector<double> descendant_outweights(const Dag& dag, std::span<const double> weights) {
  const Reachability reach(dag);
  std::vector<double> out(dag.vertex_count(), 0.0);
  for (VertexId v = 0; v < dag.vertex_count(); ++v) {
    out[v] = reach.descendant_weight(v, weights);
  }
  return out;
}

bool is_valid_linearization(const Dag& dag, std::span<const VertexId> order) {
  const std::size_t n = dag.vertex_count();
  if (order.size() != n) return false;
  std::vector<std::uint32_t> position(n, 0);
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    if (v >= n || seen[v]) return false;
    seen[v] = true;
    position[v] = static_cast<std::uint32_t>(i);
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId p : dag.predecessors(v)) {
      if (position[p] >= position[v]) return false;
    }
  }
  return true;
}

}  // namespace fpsched
