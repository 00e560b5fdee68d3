// Path Similarity Analysis (Sec. 2.1.1, Algs. 1 & 2).
//
// PSA computes the N x N matrix of pairwise Hausdorff distances over an
// ensemble of trajectories. The 2-D block partitioning of Alg. 2 groups
// the N^2 pair tasks into k^2 block tasks of n1 x n1 pairs each; every
// execution engine in this repository parallelizes PSA over these blocks.
#pragma once

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

/// One block task of Alg. 2: all pairs (i, j) with i in [row_begin,
/// row_end) and j in [col_begin, col_end), executed serially.
struct PsaBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t col_begin = 0;
  std::size_t col_end = 0;

  std::size_t pair_count() const noexcept {
    return (row_end - row_begin) * (col_end - col_begin);
  }
};

/// Splits the N x N pair matrix into ceil(N/n1)^2 blocks (Alg. 2).
/// `n1` need not divide N; the last block row/column is smaller.
/// Returns kInvalidArgument if n1 == 0.
Result<std::vector<PsaBlock>> make_psa_blocks(std::size_t n_trajectories,
                                              std::size_t n1);

/// Choice of Hausdorff kernel for the pair computation.
enum class HausdorffKernel { kNaive, kEarlyBreak };

/// Computes one block of the distance matrix into `out` (which must be
/// N x N). This is the per-task kernel every engine schedules. `policy`
/// selects the Hausdorff kernel tier (mdtask/kernels/policy.h; the
/// overload without it uses the exact kScalar default); row
/// trajectories are packed once per block, not once per pair.
void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, kernels::KernelPolicy policy,
                       DistanceMatrix& out);
void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, DistanceMatrix& out);

/// Serial reference: full PSA matrix. Ensemble members must share a
/// topology (equal atom counts); frame counts may differ.
DistanceMatrix psa_reference(const traj::Ensemble& ensemble,
                             HausdorffKernel kernel = HausdorffKernel::kNaive,
                             kernels::KernelPolicy policy =
                                 kernels::default_policy());

/// Discrete-Frechet variants: PSA's second published metric (Seyler et
/// al. 2015). Same blocking/partitioning as the Hausdorff kernels.
void compute_psa_block_frechet(const traj::Ensemble& ensemble,
                               const PsaBlock& block, DistanceMatrix& out);
DistanceMatrix psa_reference_frechet(const traj::Ensemble& ensemble);

}  // namespace mdtask::analysis
