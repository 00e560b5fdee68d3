// Leaflet Finder (Alg. 3) — serial reference, partitioning helpers, and
// the per-approach map kernels of Table 2.
//
// The four architectural approaches of Sec. 4.3 differ in partitioning
// (1-D vs 2-D), edge discovery (cdist vs BallTree) and what gets shuffled
// (edge lists vs partial components). The kernels here are the map-side
// building blocks; the engine-parallel drivers live in
// mdtask/workflows/leaflet_runner.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/common/error.h"
#include "mdtask/traj/vec3.h"

namespace mdtask::analysis {

/// Result of a Leaflet Finder run.
struct LeafletResult {
  ComponentLabels labels;           ///< canonical component id per atom
  std::size_t component_count = 0;  ///< distinct components (>= 2 leaflets)

  /// Indices of the two largest components, largest first. Atoms outside
  /// both (stray molecules) are reported by `unassigned`.
  std::uint32_t leaflet_a = 0;
  std::uint32_t leaflet_b = 0;
  std::size_t leaflet_a_size = 0;
  std::size_t leaflet_b_size = 0;
  std::size_t unassigned = 0;
};

/// Serial reference Leaflet Finder: brute-force cutoff graph + union-find.
/// Memory O(edges); time O(n^2) — exactly Alg. 3.
LeafletResult leaflet_finder_reference(std::span<const traj::Vec3> atoms,
                                       double cutoff);

/// Derives the leaflet summary (two largest components) from labels.
LeafletResult summarize_leaflets(ComponentLabels labels);

/// A contiguous 1-D chunk of atom indices [begin, end).
struct AtomChunk {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
};

/// Splits n atoms into `parts` near-equal chunks (approach 1).
std::vector<AtomChunk> make_1d_chunks(std::size_t n_atoms, std::size_t parts);

/// A 2-D block task: a pair of chunks (upper triangle, row <= col).
struct BlockPair {
  AtomChunk rows;
  AtomChunk cols;
  bool diagonal() const noexcept { return rows.begin == cols.begin; }
};

/// Builds ~target_tasks upper-triangular block pairs by choosing the
/// largest g with g(g+1)/2 <= target_tasks (approaches 2-4). Never
/// returns an empty partitioning for n_atoms > 0.
std::vector<BlockPair> make_2d_blocks(std::size_t n_atoms,
                                      std::size_t target_tasks);

/// Map kernel, approach 1: edges between chunk atoms and the full system,
/// streamed through edges_within_cutoff (the serial reference's
/// predicate, `dist2 <= cutoff^2`). The paper's pipelines materialize a
/// cdist block here; the engines still charge that block against the
/// task memory limit (lf_block_cdist_bytes).
std::vector<Edge> lf_edges_1d(std::span<const traj::Vec3> all_atoms,
                              const AtomChunk& chunk, double cutoff);

/// Map kernel, approaches 2-3: edges within one 2-D block, streamed the
/// same way. On diagonal blocks only the upper triangle is emitted.
std::vector<Edge> lf_edges_2d(std::span<const traj::Vec3> all_atoms,
                              const BlockPair& block, double cutoff);

/// Map kernel, approach 4: edges within one 2-D block via a BallTree over
/// the column chunk queried by the row chunk atoms.
std::vector<Edge> lf_edges_tree(std::span<const traj::Vec3> all_atoms,
                                const BlockPair& block, double cutoff);

/// Streamed (out-of-core) variants: the chunk positions arrive as
/// caller-loaded spans (read from a stream::ShardReader) instead of
/// being sliced out of one in-memory system array. Edges carry the
/// global atom ids encoded in the chunk/block bounds, and each variant
/// runs the exact code path of its in-memory counterpart (the in-memory
/// kernels above delegate here), so streamed runs are bit-identical.
std::vector<Edge> lf_edges_1d_spans(std::span<const traj::Vec3> chunk_atoms,
                                    std::span<const traj::Vec3> all_atoms,
                                    const AtomChunk& chunk, double cutoff);
std::vector<Edge> lf_edges_2d_spans(std::span<const traj::Vec3> row_atoms,
                                    std::span<const traj::Vec3> col_atoms,
                                    const BlockPair& block, double cutoff);
std::vector<Edge> lf_edges_tree_spans(std::span<const traj::Vec3> row_atoms,
                                      std::span<const traj::Vec3> col_atoms,
                                      const BlockPair& block, double cutoff);

/// Approach 3-4 map-side summary of one block's edges, without hashing:
/// equal, element for element, to partial_components(edges). Each vertex
/// is indexed by its offset in the block's row range, then (off the
/// diagonal) in its column range. Row atoms precede column atoms, so
/// slots ascend with vertex ids: union-find over the slots, then one
/// ordered pass emits every touched slot with its set's first slot as
/// the min-id root. An edge endpoint outside the block, or an
/// off-diagonal block whose rows do not precede its columns, throws
/// std::invalid_argument.
PartialComponents lf_partial_components(std::span<const Edge> edges,
                                        const BlockPair& block);

/// Bytes a map task's cdist block materializes for the given block shape;
/// drives the paper's memory-pressure behaviour (42k tasks at 4M atoms,
/// approach-3 Dask worker restarts).
std::size_t lf_block_cdist_bytes(const BlockPair& block);

}  // namespace mdtask::analysis
