// Immutable directed acyclic graph in compressed sparse row form.
//
// Vertices are dense ids [0, n). Both predecessor and successor adjacency
// are materialized because the evaluator walks predecessors while the
// linearizers walk successors; CSR keeps both walks cache friendly
// (Core Guidelines Per.16/Per.19: compact data, predictable access). The
// freeze computes exactly what those walks read: the two CSRs, a
// topological order, and the sources and sinks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fpsched {

using VertexId = std::uint32_t;

class Dag;

/// Streaming edge accumulator; `build()` validates (vertex ranges,
/// duplicate edges, acyclicity) and freezes into a Dag.
///
/// Edges are stored as two parallel id arrays in emission order — no
/// pair-vector staging, no global sort. The freeze counting-sorts them
/// into CSR and deduplicates per row, so building a million-task graph
/// costs O(n + e) time and exactly the arrays you see here. Call
/// `reserve()` up front when the counts are known to avoid regrowth.
class DagBuilder {
 public:
  /// Pre-sizes the edge arrays for a known instance shape.
  void reserve(std::size_t vertices, std::size_t edges);

  /// Adds one vertex, returning its id (ids are consecutive from 0).
  VertexId add_vertex();

  /// Adds `count` vertices, returning the first id.
  VertexId add_vertices(std::size_t count);

  /// Adds the dependency edge `from -> to`. Self loops are rejected
  /// immediately; duplicate edges are deduplicated at build time.
  void add_edge(VertexId from, VertexId to);

  std::size_t vertex_count() const { return vertex_count_; }
  std::size_t edge_count() const { return edge_from_.size(); }

  /// Validates and freezes. Throws GraphError on cycles.
  Dag build() &&;

 private:
  std::size_t vertex_count_ = 0;
  std::vector<VertexId> edge_from_;
  std::vector<VertexId> edge_to_;
};

/// Frozen DAG with CSR adjacency in both directions and a cached
/// topological order (by construction: Kahn's algorithm with smallest-id
/// tie-breaking, so the order is deterministic).
class Dag {
 public:
  Dag() = default;

  std::size_t vertex_count() const { return pred_offsets_.empty() ? 0 : pred_offsets_.size() - 1; }
  std::size_t edge_count() const { return pred_list_.size(); }

  std::span<const VertexId> predecessors(VertexId v) const;
  std::span<const VertexId> successors(VertexId v) const;

  std::size_t in_degree(VertexId v) const { return predecessors(v).size(); }
  std::size_t out_degree(VertexId v) const { return successors(v).size(); }

  /// Vertices with no predecessors, ascending by id (computed at freeze).
  std::span<const VertexId> sources() const { return sources_; }
  /// Vertices with no successors, ascending by id (computed at freeze).
  std::span<const VertexId> sinks() const { return sinks_; }

  /// A fixed, deterministic topological order (smallest id first among
  /// ready vertices).
  std::span<const VertexId> topological_order() const { return topo_order_; }

  /// True if the edge `from -> to` exists (binary search on CSR row).
  bool has_edge(VertexId from, VertexId to) const;

  /// Heap bytes held by the frozen representation (provenance for the
  /// instance-memory bench rows).
  std::size_t memory_bytes() const;

 private:
  friend class DagBuilder;  // build() fills the arrays below

  std::vector<std::uint32_t> pred_offsets_;
  std::vector<VertexId> pred_list_;
  std::vector<std::uint32_t> succ_offsets_;
  std::vector<VertexId> succ_list_;
  std::vector<VertexId> topo_order_;
  std::vector<VertexId> sources_;
  std::vector<VertexId> sinks_;
};

}  // namespace fpsched
