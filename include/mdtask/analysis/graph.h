// Graph connected components for the Leaflet Finder (Alg. 3, stage b).
//
// Two equivalent engines are provided: a union-find (disjoint-set union
// with rank + path compression) and a BFS labelling; tests assert they
// agree. Partial-component summaries support the paper's approach 3/4:
// map tasks compute components of their edge block, the reduce merges
// summaries whenever they share a vertex (Table 2).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mdtask/analysis/pairwise.h"

namespace mdtask::analysis {

/// Disjoint-set union over vertices 0..n-1.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  std::uint32_t find(std::uint32_t x) noexcept;
  /// Returns true if the union merged two distinct sets.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept;
  std::size_t set_count() const noexcept { return sets_; }
  std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t sets_ = 0;
};

/// Component label per vertex, normalized so labels are the smallest
/// vertex id in each component (canonical form; comparable across
/// algorithms and partitionings).
using ComponentLabels = std::vector<std::uint32_t>;

/// Connected components over `n_vertices` from an edge list, union-find.
ComponentLabels connected_components_union_find(std::size_t n_vertices,
                                                std::span<const Edge> edges);

/// Connected components via BFS over an adjacency list.
ComponentLabels connected_components_bfs(std::size_t n_vertices,
                                         std::span<const Edge> edges);

/// One entry of a partial-components summary (POD so summaries can move
/// through the byte-level engine channels unmodified).
struct VertexRoot {
  std::uint32_t vertex = 0;
  std::uint32_t root = 0;

  friend bool operator==(const VertexRoot&, const VertexRoot&) = default;
  friend auto operator<=>(const VertexRoot&, const VertexRoot&) = default;
};

/// A partial-components summary: for every vertex that appears in a
/// partition's edge block, the canonical (min-id) root within that block.
/// This is what approach 3/4 map tasks shuffle instead of raw edges —
/// O(vertices touched) rather than O(edges).
struct PartialComponents {
  /// vertex -> local canonical root (min vertex id of its local set).
  std::vector<VertexRoot> vertex_root;

  std::size_t byte_size() const noexcept {
    return vertex_root.size() * sizeof(VertexRoot);
  }
};

/// Computes the partial-components summary of one edge block.
PartialComponents partial_components(std::span<const Edge> edges);

/// Merges partial summaries into global labels: summaries sharing a vertex
/// join components (the paper's reduce). Vertices never touched by any
/// edge are singletons.
ComponentLabels merge_partial_components(
    std::size_t n_vertices, std::span<const PartialComponents> parts);

/// Joins two partial summaries into one (the pairwise reduce operation of
/// approaches 3-4 when the merge runs as a tree inside the framework
/// rather than at the driver). Associative and commutative.
///
/// Precondition: each summary is sorted by vertex, its vertices are
/// unique, and every root is an entry of its own summary.
/// partial_components and this merge always return such summaries; input
/// that breaks the precondition throws std::invalid_argument.
///
/// One walk over the two sorted lists builds their union, a union-find
/// over union positions joins each entry to its root's entry (found by
/// binary search, once per run of equal roots), and the output is emitted
/// in vertex order: linear in |a| + |b| up to those searches, with no
/// hashing and no sort.
PartialComponents merge_partials_pairwise(const PartialComponents& a,
                                          const PartialComponents& b);

/// The paper's summary merge: each (vertex, root) entry of both summaries
/// becomes the edge vertex--root and partial_components reruns over them,
/// hashing every vertex and sorting. It returns what
/// merge_partials_pairwise returns on summaries that meet that merge's
/// precondition. Kept as the DES cost model (perf::calibrate_kernels
/// times it for `merge_vertex`) and as the reference the linear merge is
/// tested against.
PartialComponents merge_partials_by_edges(const PartialComponents& a,
                                          const PartialComponents& b);

/// Normalizes arbitrary labels to canonical min-id labels (helper shared
/// by the implementations; exposed for tests).
void canonicalize_labels(ComponentLabels& labels);

/// Number of distinct components in a label vector.
std::size_t component_count(const ComponentLabels& labels);

}  // namespace mdtask::analysis
