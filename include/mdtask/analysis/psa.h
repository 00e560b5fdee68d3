// Path Similarity Analysis (Sec. 2.1.1, Algs. 1 & 2).
//
// PSA computes the N x N matrix of pairwise Hausdorff distances over an
// ensemble of trajectories. The 2-D block partitioning of Alg. 2 groups
// the N^2 pair tasks into k^2 block tasks of n1 x n1 pairs each. Both
// PSA metrics are symmetric bit for bit, so the blocks here keep only
// the upper triangle: the k (k + 1) / 2 blocks on or above the diagonal,
// each computing its pairs i < j. Every execution engine in this
// repository parallelizes PSA over these blocks, and the runner mirrors
// each entry as it assembles the matrix; the DES replay
// (perf::simulate_psa) keeps the paper's k^2 blocks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/kernels/policy.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::analysis {

/// Dense row-major square matrix of distances.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  std::size_t size() const noexcept { return n_; }
  double at(std::size_t i, std::size_t j) const noexcept {
    return data_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) noexcept {
    data_[i * n_ + j] = v;
  }
  const std::vector<double>& data() const noexcept { return data_; }

  /// Max absolute element-wise difference; used by cross-engine tests.
  double max_abs_diff(const DistanceMatrix& other) const noexcept;

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// One block task of Alg. 2: the pairs (i, j) with i in [row_begin,
/// row_end), j in [col_begin, col_end) and i < j, executed serially.
struct PsaBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t col_begin = 0;
  std::size_t col_end = 0;

  /// Calls f(i, j) for each pair i < j of the block, row-major.
  template <typename F>
  void for_each_pair(F&& f) const {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t j = std::max(col_begin, i + 1); j < col_end; ++j) {
        f(i, j);
      }
    }
  }

  /// The pairs i < j the block computes.
  std::size_t pair_count() const noexcept {
    std::size_t pairs = 0;
    for_each_pair([&pairs](std::size_t, std::size_t) { ++pairs; });
    return pairs;
  }
};

/// Splits the upper triangle of the N x N pair matrix into blocks: of
/// Alg. 2's k^2 blocks, k = ceil(N/n1), the k (k + 1) / 2 on or above
/// the diagonal (row chunk <= column chunk), largest pair count first
/// (ties in row-major order) so that a cyclic deal spreads the large
/// off-diagonal blocks first. `n1` need not divide N; the last chunk is
/// smaller. The diagonal blocks stay in even when they hold no pair
/// (n1 == 1, N == 1). Returns kInvalidArgument if n1 == 0.
Result<std::vector<PsaBlock>> make_psa_blocks(std::size_t n_trajectories,
                                              std::size_t n1);

/// Choice of Hausdorff kernel for the pair computation.
enum class HausdorffKernel { kNaive, kEarlyBreak };

/// Computes one block's pairs i < j into out(i, j) (`out` must be
/// N x N); no other cell is written, and mirroring (j, i) is the
/// caller's. This is the per-task kernel every engine schedules.
/// `policy` selects the Hausdorff kernel tier (mdtask/kernels/policy.h;
/// the overload without it uses the exact kScalar default); the block's
/// trajectories are packed once per block, not once per pair.
void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, kernels::KernelPolicy policy,
                       DistanceMatrix& out);
void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, DistanceMatrix& out);

/// Serial reference: full PSA matrix, every ordered pair (i, j), i != j,
/// computed on its own, so it checks the blocked runs' mirroring.
/// Ensemble members must share a topology (equal atom counts); frame
/// counts may differ.
DistanceMatrix psa_reference(const traj::Ensemble& ensemble,
                             HausdorffKernel kernel = HausdorffKernel::kNaive,
                             kernels::KernelPolicy policy =
                                 kernels::default_policy());

/// Discrete-Frechet variants: PSA's second published metric (Seyler et
/// al. 2015). Same blocking, upper triangle and reference as the
/// Hausdorff kernels.
void compute_psa_block_frechet(const traj::Ensemble& ensemble,
                               const PsaBlock& block, DistanceMatrix& out);
DistanceMatrix psa_reference_frechet(const traj::Ensemble& ensemble);

}  // namespace mdtask::analysis
