#include "mdtask/analysis/psa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mdtask/analysis/frechet.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::analysis {
namespace {

/// Packs the ensemble members a block touches, keyed by trajectory
/// index. Packing is O(frames x atoms) per member against the block's
/// O(frames^2 x atoms) pair work, so the pack cost amortizes away.
std::vector<kernels::FramePack> pack_ensemble(const traj::Ensemble& ensemble) {
  std::vector<kernels::FramePack> packs;
  packs.reserve(ensemble.size());
  for (const auto& t : ensemble) packs.push_back(kernels::pack_trajectory(t));
  return packs;
}

void compute_psa_block_packed(std::span<const kernels::FramePack> packs,
                              const PsaBlock& block, HausdorffKernel kernel,
                              kernels::KernelPolicy policy,
                              DistanceMatrix& out) {
  const bool early = kernel == HausdorffKernel::kEarlyBreak;
  for (std::size_t i = block.row_begin; i < block.row_end; ++i) {
    for (std::size_t j = block.col_begin; j < block.col_end; ++j) {
      out.set(i, j,
              i == j ? 0.0
                     : kernels::hausdorff_packed(packs[i], packs[j], early,
                                                 policy));
    }
  }
}

}  // namespace

double DistanceMatrix::max_abs_diff(
    const DistanceMatrix& other) const noexcept {
  if (n_ != other.n_) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

Result<std::vector<PsaBlock>> make_psa_blocks(std::size_t n_trajectories,
                                              std::size_t n1) {
  if (n1 == 0) {
    return Error(ErrorCode::kInvalidArgument, "block size n1 must be > 0");
  }
  std::vector<PsaBlock> blocks;
  for (std::size_t r = 0; r < n_trajectories; r += n1) {
    for (std::size_t c = 0; c < n_trajectories; c += n1) {
      blocks.push_back({r, std::min(r + n1, n_trajectories), c,
                        std::min(c + n1, n_trajectories)});
    }
  }
  return blocks;
}

void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, kernels::KernelPolicy policy,
                       DistanceMatrix& out) {
  // Pack each trajectory the block touches exactly once (row and column
  // ranges usually overlap on the diagonal blocks).
  std::vector<kernels::FramePack> packs(ensemble.size());
  std::vector<bool> packed(ensemble.size(), false);
  auto ensure = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (!packed[i]) {
        packs[i] = kernels::pack_trajectory(ensemble[i]);
        packed[i] = true;
      }
    }
  };
  ensure(block.row_begin, block.row_end);
  ensure(block.col_begin, block.col_end);
  compute_psa_block_packed(packs, block, kernel, policy, out);
}

void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, DistanceMatrix& out) {
  compute_psa_block(ensemble, block, kernel, kernels::default_policy(), out);
}

DistanceMatrix psa_reference(const traj::Ensemble& ensemble,
                             HausdorffKernel kernel,
                             kernels::KernelPolicy policy) {
  DistanceMatrix out(ensemble.size());
  const auto packs = pack_ensemble(ensemble);
  const PsaBlock whole{0, ensemble.size(), 0, ensemble.size()};
  compute_psa_block_packed(packs, whole, kernel, policy, out);
  return out;
}

void compute_psa_block_frechet(const traj::Ensemble& ensemble,
                               const PsaBlock& block, DistanceMatrix& out) {
  for (std::size_t i = block.row_begin; i < block.row_end; ++i) {
    for (std::size_t j = block.col_begin; j < block.col_end; ++j) {
      out.set(i, j,
              i == j ? 0.0 : frechet_distance(ensemble[i], ensemble[j]));
    }
  }
}

DistanceMatrix psa_reference_frechet(const traj::Ensemble& ensemble) {
  DistanceMatrix out(ensemble.size());
  const PsaBlock whole{0, ensemble.size(), 0, ensemble.size()};
  compute_psa_block_frechet(ensemble, whole, out);
  return out;
}

}  // namespace mdtask::analysis
