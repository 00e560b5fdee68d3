#include "mdtask/cpptraj/rmsd2d.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::cpptraj {

std::vector<double> rmsd2d_block_tiled(const traj::Trajectory& t1,
                                       const traj::Trajectory& t2) {
  std::vector<double> out(t1.frames() * t2.frames(), 0.0);
  if (out.empty()) return out;
  const kernels::FramePack a = kernels::pack_trajectory(t1);
  const kernels::FramePack b = kernels::pack_trajectory(t2);
  kernels::rmsd2d_packed(a, b, kernels::KernelPolicy::kVectorized, out);
  return out;
}

}  // namespace mdtask::cpptraj
