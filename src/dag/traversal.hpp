// Graph analyses shared by generators, linearizers, and the theory modules:
// level structure, reachability, outweights, linearization checking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/graph.hpp"

namespace fpsched {

/// Longest-path level of each vertex: sources are level 0, every other
/// vertex is 1 + max level of its predecessors.
std::vector<std::uint32_t> vertex_levels(const Dag& dag);

/// Dense reachability: descendants(v) as a bitset over vertices.
/// Memory is n^2/8 bytes — intended for analyses and tests (n up to a few
/// thousand), not for hot paths.
class Reachability {
 public:
  explicit Reachability(const Dag& dag);

  /// True when `ancestor` can reach `descendant` through directed edges
  /// (strictly: ancestor != descendant is required for a true result).
  bool reaches(VertexId ancestor, VertexId descendant) const;

  /// Number of distinct descendants of v (excluding v).
  std::size_t descendant_count(VertexId v) const;

  /// Sum of `weights` over all descendants of v (excluding v).
  double descendant_weight(VertexId v, std::span<const double> weights) const;

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // row-major: vertex v owns words_ words
};

/// Direct-successor weight sum for every vertex — the paper's "outweight"
/// priority (Section 5): d_i = sum of w_j over immediate successors j.
std::vector<double> direct_outweights(const Dag& dag, std::span<const double> weights);

/// Transitive variant: sum of weights over all (distinct) descendants.
std::vector<double> descendant_outweights(const Dag& dag, std::span<const double> weights);

/// Checks that `order` is a permutation of all vertices that respects every
/// dependency edge.
bool is_valid_linearization(const Dag& dag, std::span<const VertexId> order);

}  // namespace fpsched
