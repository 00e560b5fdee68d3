// Vectorized, cache-blocked batch kernels over packed frames.
//
// These are the compute cores behind the PSA Hausdorff distance, the
// cpptraj 2D-RMSD comparator and the Leaflet Finder cutoff graph. The
// distance kernels take a KernelPolicy selecting the exact scalar loop
// or the SIMD-lane variant (single-precision accumulation with periodic
// double drains, ~1e-6 relative differences). The cutoff predicate
// kernel has one exact path and ignores its policy argument. Every
// kScalar sum accumulates one frame pair in the seed's per-atom order;
// where a kernel computes several pairs at once, it vectorizes across
// the pairs, never across the atoms of one pair.
//
// Distances are compared in the squared-sum domain wherever possible:
// sqrt and the division by the atom count are monotone, so min/max and
// early-break decisions commute with them and only one sqrt per reduced
// value is ever taken.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdtask/kernels/frame_pack.h"
#include "mdtask/kernels/policy.h"

namespace mdtask::kernels {

/// Frames per inner tile of the one-to-many and 2-D kernels. The
/// Hausdorff early break applies at this granularity on the vectorized
/// path; equivalence tests exercise sizes of kFrameTile +/- 1.
inline constexpr std::size_t kFrameTile = 16;

/// Frames of B per lane tile of the exact (kScalar) multi-pair kernel in
/// the naive symmetric Hausdorff scan: one frame of A is swept against
/// kPairTile frames of B, one double accumulator lane per frame pair.
/// Equivalence tests exercise frame counts of kPairTile +/- 1.
inline constexpr std::size_t kPairTile = 4;

/// Column-tile width (points) of the cutoff kernel.
inline constexpr std::size_t kCutoffTile = 256;

/// Sum of squared coordinate differences between frame `frame_a` of `a`
/// and frame `frame_b` of `b` (the pre-sqrt RMSD numerator). kScalar
/// reproduces the seed's accumulation order exactly. Throws
/// std::invalid_argument when the packs' atom counts differ.
double frame_sumsq_packed(const FramePack& a, std::size_t frame_a,
                          const FramePack& b, std::size_t frame_b,
                          KernelPolicy policy);

/// One frame of A against the frame block [j_begin, j_end) of B: writes
/// the per-frame squared sums to out_sumsq[j - j_begin] and returns the
/// minimum over the block (+inf for an empty block). This is the tile
/// primitive the vectorized directed Hausdorff scan is built from.
/// Throws std::invalid_argument when the packs' atom counts differ or
/// out_sumsq is shorter than j_end - j_begin.
double sumsq_one_to_many(const FramePack& a, std::size_t frame_a,
                         const FramePack& b, std::size_t j_begin,
                         std::size_t j_end, std::span<double> out_sumsq,
                         KernelPolicy policy);

/// Directed Hausdorff h(A -> B) over packed trajectories, RMSD frame
/// metric. With `early_break`, the Taha-Hanbury cutoff stops a row's
/// inner scan once its running minimum can no longer raise the directed
/// maximum: per frame pair under kScalar (the seed's evaluation counts),
/// per kFrameTile tile under kVectorized. Either way the value equals
/// the full scan's and the evaluation count never exceeds the naive
/// frames(A) x frames(B). `evals` (optional) accumulates the number of
/// frame pairs evaluated. Throws std::invalid_argument when the packs'
/// atom counts differ.
double hausdorff_directed_packed(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 std::size_t* evals = nullptr);

/// Symmetric Hausdorff max(h(A->B), h(B->A)) over packed trajectories.
/// Without `early_break` (Alg. 1's naive scan) this is one pass over the
/// frames(A) x frames(B) frame pairs: each pair's squared sum is
/// computed once and updates both the A -> B row minimum and the B -> A
/// column minimum. The sum is symmetric bit for bit (IEEE subtraction
/// negates exactly, the squares are equal, the accumulation order is the
/// same), so the value equals the two directed scans' exactly under
/// either policy. `evals` keeps Alg. 1's meaning, the directed frame-pair
/// evaluations: it grows by 2 x frames(A) x frames(B), although each
/// distance is computed once and serves both directions. With
/// `early_break` the two directed scans run as hausdorff_directed_packed
/// describes; under kScalar they compute 0.27-1.0 x 2 x frames(A) x
/// frames(B) distances on generator trajectories (median 0.58-0.96 by
/// shape), in most pairs more than the naive scan, and remain as the
/// paper's ablation. An empty side gives +inf (0 when both are empty);
/// 0 atoms gives 0 with no evaluations. The one-pass scan allocates
/// O(frames(A) + atoms) scratch per call. Throws std::invalid_argument
/// when the packs' atom counts differ.
double hausdorff_packed(const FramePack& a, const FramePack& b,
                        bool early_break, KernelPolicy policy,
                        std::size_t* evals = nullptr);

/// Tiled all-pairs frame RMSD (the cpptraj "2D-RMSD" comparator):
/// out[i * b.frames() + j] = rmsd(a[i], b[j]); out.size() must be
/// a.frames() * b.frames(). Tiles of kFrameTile x kFrameTile frames keep
/// the B-side tile hot across the A-side rows. Throws
/// std::invalid_argument when the packs' atom counts differ.
void rmsd2d_packed(const FramePack& a, const FramePack& b,
                   KernelPolicy policy, std::span<double> out);

/// A (row, col) hit of the cutoff kernel, indices local to the packs.
struct IndexPair {
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const IndexPair&, const IndexPair&) = default;
};

/// Appends every (i, j) with |rows[i] - cols[j]|^2 <= cutoff^2 to `out`,
/// in row-major scan order. Operates on frame 0 of each pack (the
/// point-cloud convention of pack_points). A conservative float sweep
/// pre-filters each tile and survivors are confirmed with the exact
/// traj::dist2 expression, so the pair list equals
/// cutoff_pairs_reference's. `policy` has no effect.
void cutoff_pairs_packed(const FramePack& rows, const FramePack& cols,
                         double cutoff, KernelPolicy policy,
                         std::vector<IndexPair>& out);

/// Scalar reference scan of cutoff_pairs_packed: the exact double
/// predicate over every pair, no pre-filter or tiling. Kept for the
/// equivalence tests and the kernel bench's scalar cell.
void cutoff_pairs_reference(const FramePack& rows, const FramePack& cols,
                            double cutoff, std::vector<IndexPair>& out);

}  // namespace mdtask::kernels
