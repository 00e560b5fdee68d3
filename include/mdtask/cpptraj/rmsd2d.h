// CPPTraj comparator: optimized C++ 2D-RMSD (Sec. 2.2, Fig. 6).
//
// CPPTraj computes the all-pairs frame RMSD matrix ("2D-RMSD", Alg. 1
// without the min-max reduction), parallelized by distributing frames
// over MPI ranks. The paper contrasts a GNU build with no optimization
// against an Intel -O3 build of the same code; this module reproduces
// that contrast honestly: rmsd2d_block_reference is compiled at -O0 and
// rmsd2d_block_optimized at -O3 + unrolled accumulation (see
// src/CMakeLists.txt), so the measured gap comes from real compiler
// optimization of the same inner loop family.
#pragma once

#include <vector>

#include "mdtask/traj/trajectory.h"

namespace mdtask::cpptraj {

/// All-pairs frame RMSD between two trajectories, row-major
/// [t1.frames() x t2.frames()]. Reference build (compiled -O0).
std::vector<double> rmsd2d_block_reference(const traj::Trajectory& t1,
                                           const traj::Trajectory& t2);

/// Same contract, optimized build (compiled -O3, blocked accumulation).
std::vector<double> rmsd2d_block_optimized(const traj::Trajectory& t1,
                                           const traj::Trajectory& t2);

/// Same contract via the tiled SoA batch kernel (kernels::rmsd2d_packed,
/// kVectorized policy): packs both trajectories once and fills the
/// matrix in kFrameTile x kFrameTile tiles. Values agree with the other
/// kernels to ~1e-6 relative (single-precision lane accumulation).
std::vector<double> rmsd2d_block_tiled(const traj::Trajectory& t1,
                                       const traj::Trajectory& t2);

}  // namespace mdtask::cpptraj
