// Pairwise spatial distance kernels for the Leaflet Finder edge-discovery
// stage (Alg. 3, stage a).
//
// `cdist` mirrors scipy.spatial.distance.cdist: it materializes a dense
// double-precision block of the distance matrix. The paper repeatedly
// notes its memory cost (it forces 42k tasks at 4M atoms and OOMs
// approaches 1-2); we reproduce that by accounting for the materialized
// block and by offering the streaming `edges_within_cutoff` used when only
// the thresholded edges are needed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdtask/kernels/policy.h"
#include "mdtask/traj/vec3.h"

namespace mdtask::analysis {

/// An undirected edge between two atom indices (global ids).
struct Edge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Dense distance block: d[i * cols + j] = |xs[i] - ys[j]|, doubles
/// (8 bytes/entry — exactly the memory behaviour of SciPy's cdist).
std::vector<double> cdist(std::span<const traj::Vec3> xs,
                          std::span<const traj::Vec3> ys);

/// Bytes a cdist block of the given shape materializes; used by the
/// simulated-memory accounting in the engines.
constexpr std::size_t cdist_bytes(std::size_t rows, std::size_t cols) {
  return rows * cols * sizeof(double);
}

/// Edge-discovery kernel over a 2-D block: emits (row_ids[i], col_ids[j])
/// for every cross pair within `cutoff`, via a materialized cdist block
/// (the paper's approaches 1-3). Pairs with equal global ids are skipped;
/// each undirected edge is emitted with a < b exactly once provided the
/// caller tiles the upper triangle (row block <= column block) and, on
/// diagonal blocks, passes identical id spans.
std::vector<Edge> edges_from_cdist_block(std::span<const traj::Vec3> xs,
                                         std::span<const traj::Vec3> ys,
                                         std::span<const std::uint32_t> x_ids,
                                         std::span<const std::uint32_t> y_ids,
                                         double cutoff);

/// Streaming counterpart of edges_from_cdist_block that never
/// materializes the dense block: both point sets are packed into SoA
/// lanes and streamed through kernels::cutoff_pairs_packed. Its float
/// pre-filter only drops pairs the exact `dist2(p, q) <= cutoff^2`
/// confirm would reject, so the edge list (values and order) equals a
/// scalar double scan's.
std::vector<Edge> edges_within_cutoff(std::span<const traj::Vec3> xs,
                                      std::span<const traj::Vec3> ys,
                                      std::span<const std::uint32_t> x_ids,
                                      std::span<const std::uint32_t> y_ids,
                                      double cutoff);

/// The same kernel; `policy` has no effect (the cutoff predicate has one
/// exact path).
std::vector<Edge> edges_within_cutoff(std::span<const traj::Vec3> xs,
                                      std::span<const traj::Vec3> ys,
                                      std::span<const std::uint32_t> x_ids,
                                      std::span<const std::uint32_t> y_ids,
                                      double cutoff,
                                      kernels::KernelPolicy policy);

}  // namespace mdtask::analysis
