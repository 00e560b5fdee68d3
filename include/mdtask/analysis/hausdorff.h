// Hausdorff distance between trajectories (Alg. 1 of the paper).
//
// A trajectory is treated as a set of frames; frames are compared with a
// pluggable frame metric (positional RMSD by default). We implement the
// paper's naive O(F^2) double loop and, as the extension the paper cites
// as future work, the early-break algorithm of Taha & Hanbury (TPAMI'15)
// which skips inner iterations once a candidate cannot raise the current
// directed maximum.
#pragma once

#include <functional>
#include <span>

#include "mdtask/kernels/policy.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::analysis {

/// Frame metric signature: distance between two conformations.
using FrameMetric = std::function<double(std::span<const traj::Vec3>,
                                         std::span<const traj::Vec3>)>;

/// Naive symmetric Hausdorff distance per Alg. 1:
///   max( max_f1 min_f2 d(f1,f2), max_f2 min_f1 d(f2,f1) ).
/// Preconditions: both trajectories non-empty with equal atom counts.
double hausdorff_naive(const traj::Trajectory& t1, const traj::Trajectory& t2,
                       const FrameMetric& metric);

/// Same value as hausdorff_naive but using the early-break scan: the inner
/// minimum search aborts as soon as a frame distance drops below the
/// running outer maximum (cmax), because such a row can no longer affect
/// the result. Identical output, typically far fewer metric evaluations.
double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2,
                             const FrameMetric& metric);

/// Overloads with the default positional-RMSD frame metric. These take
/// the devirtualized fast path: the frame metric is called directly on a
/// packed SoA layout (mdtask::kernels) instead of through the
/// std::function indirection, with the batch kernel variant selected by
/// `policy`. kScalar, the default, reproduces the seed's values and
/// evaluation counts bit-for-bit; kVectorized tiles the scan and
/// accumulates in single precision (values equal to ~1e-6 relative,
/// early break at tile granularity).
double hausdorff_naive(const traj::Trajectory& t1, const traj::Trajectory& t2,
                       kernels::KernelPolicy policy);
double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2,
                             kernels::KernelPolicy policy);
double hausdorff_naive(const traj::Trajectory& t1, const traj::Trajectory& t2);
double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2);

/// Counts metric evaluations; used by tests/ablations to demonstrate the
/// early-break saving. Both run to completion and must agree on value.
/// On the kVectorized path the early-break count is at tile granularity
/// and can exceed the scalar per-pair count, but never the naive
/// frames^2 total.
struct HausdorffProfile {
  double distance = 0.0;
  std::size_t metric_evals = 0;
};
HausdorffProfile hausdorff_naive_profiled(const traj::Trajectory& t1,
                                          const traj::Trajectory& t2);
HausdorffProfile hausdorff_early_break_profiled(const traj::Trajectory& t1,
                                                const traj::Trajectory& t2);
HausdorffProfile hausdorff_naive_profiled(const traj::Trajectory& t1,
                                          const traj::Trajectory& t2,
                                          kernels::KernelPolicy policy);
HausdorffProfile hausdorff_early_break_profiled(const traj::Trajectory& t1,
                                                const traj::Trajectory& t2,
                                                kernels::KernelPolicy policy);

}  // namespace mdtask::analysis
