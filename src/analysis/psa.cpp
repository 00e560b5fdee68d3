#include "mdtask/analysis/psa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mdtask/analysis/frechet.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::analysis {

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
    for (std::size_t c = r; c < n_trajectories; c += n1) {
      blocks.push_back({r, std::min(r + n1, n_trajectories), c,
                        std::min(c + n1, n_trajectories)});
    }
  }
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const PsaBlock& a, const PsaBlock& b) {
                     return a.pair_count() > b.pair_count();
                   });
  return blocks;
}

void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, kernels::KernelPolicy policy,
                       DistanceMatrix& out) {
  // Pack each trajectory the block touches exactly once (row and column
  // ranges coincide on the diagonal blocks).
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
  const bool early = kernel == HausdorffKernel::kEarlyBreak;
  block.for_each_pair([&](std::size_t i, std::size_t j) {
    out.set(i, j, kernels::hausdorff_packed(packs[i], packs[j], early, policy));
  });
}

void compute_psa_block(const traj::Ensemble& ensemble, const PsaBlock& block,
                       HausdorffKernel kernel, DistanceMatrix& out) {
  compute_psa_block(ensemble, block, kernel, kernels::default_policy(), out);
}

DistanceMatrix psa_reference(const traj::Ensemble& ensemble,
                             HausdorffKernel kernel,
                             kernels::KernelPolicy policy) {
  const std::size_t n = ensemble.size();
  std::vector<kernels::FramePack> packs;
  packs.reserve(n);
  for (const auto& t : ensemble) packs.push_back(kernels::pack_trajectory(t));
  const bool early = kernel == HausdorffKernel::kEarlyBreak;
  DistanceMatrix out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        out.set(i, j,
                kernels::hausdorff_packed(packs[i], packs[j], early, policy));
      }
    }
  }
  return out;
}

void compute_psa_block_frechet(const traj::Ensemble& ensemble,
                               const PsaBlock& block, DistanceMatrix& out) {
  block.for_each_pair([&](std::size_t i, std::size_t j) {
    out.set(i, j, frechet_distance(ensemble[i], ensemble[j]));
  });
}

DistanceMatrix psa_reference_frechet(const traj::Ensemble& ensemble) {
  const std::size_t n = ensemble.size();
  DistanceMatrix out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) out.set(i, j, frechet_distance(ensemble[i], ensemble[j]));
    }
  }
  return out;
}

}  // namespace mdtask::analysis
