#include "mdtask/analysis/hausdorff.h"

#include <algorithm>
#include <limits>

#include "mdtask/analysis/rmsd.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::analysis {
namespace {

/// Directed Hausdorff h(A -> B) = max over frames a of min over frames b
/// of metric(a, b), naive full scan. Kept for the pluggable-metric API;
/// the default RMSD metric takes the packed fast path below.
double directed_naive(const traj::Trajectory& ta, const traj::Trajectory& tb,
                      const FrameMetric& metric, std::size_t* evals) {
  double dmax = 0.0;
  for (std::size_t i = 0; i < ta.frames(); ++i) {
    double dmin = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < tb.frames(); ++j) {
      dmin = std::min(dmin, metric(ta.frame(i), tb.frame(j)));
      if (evals) ++*evals;
    }
    dmax = std::max(dmax, dmin);
  }
  return dmax;
}

/// Directed Hausdorff with the Taha-Hanbury early break: once the inner
/// minimum falls at or below the outer running maximum `cmax`, frame i
/// cannot raise the result and the inner scan stops.
double directed_early(const traj::Trajectory& ta, const traj::Trajectory& tb,
                      const FrameMetric& metric, std::size_t* evals) {
  double cmax = 0.0;
  for (std::size_t i = 0; i < ta.frames(); ++i) {
    double cmin = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < tb.frames(); ++j) {
      const double d = metric(ta.frame(i), tb.frame(j));
      if (evals) ++*evals;
      if (d < cmin) {
        cmin = d;
        if (cmin <= cmax) break;  // cannot contribute to the maximum
      }
    }
    if (cmin > cmax) cmax = cmin;
  }
  return cmax;
}

/// Default-metric fast path: pack both trajectories once and run the
/// batch kernel, bypassing the per-pair std::function dispatch.
double hausdorff_packed_rmsd(const traj::Trajectory& t1,
                             const traj::Trajectory& t2, bool early_break,
                             kernels::KernelPolicy policy,
                             std::size_t* evals) {
  const kernels::FramePack a = kernels::pack_trajectory(t1);
  const kernels::FramePack b = kernels::pack_trajectory(t2);
  return kernels::hausdorff_packed(a, b, early_break, policy, evals);
}

}  // namespace

double hausdorff_naive(const traj::Trajectory& t1, const traj::Trajectory& t2,
                       const FrameMetric& metric) {
  return std::max(directed_naive(t1, t2, metric, nullptr),
                  directed_naive(t2, t1, metric, nullptr));
}

double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2,
                             const FrameMetric& metric) {
  return std::max(directed_early(t1, t2, metric, nullptr),
                  directed_early(t2, t1, metric, nullptr));
}

double hausdorff_naive(const traj::Trajectory& t1, const traj::Trajectory& t2,
                       kernels::KernelPolicy policy) {
  return hausdorff_packed_rmsd(t1, t2, /*early_break=*/false, policy,
                               nullptr);
}

double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2,
                             kernels::KernelPolicy policy) {
  return hausdorff_packed_rmsd(t1, t2, /*early_break=*/true, policy,
                               nullptr);
}

double hausdorff_naive(const traj::Trajectory& t1,
                       const traj::Trajectory& t2) {
  return hausdorff_naive(t1, t2, kernels::default_policy());
}

double hausdorff_early_break(const traj::Trajectory& t1,
                             const traj::Trajectory& t2) {
  return hausdorff_early_break(t1, t2, kernels::default_policy());
}

HausdorffProfile hausdorff_naive_profiled(const traj::Trajectory& t1,
                                          const traj::Trajectory& t2,
                                          kernels::KernelPolicy policy) {
  HausdorffProfile p;
  p.distance = hausdorff_packed_rmsd(t1, t2, /*early_break=*/false, policy,
                                     &p.metric_evals);
  return p;
}

HausdorffProfile hausdorff_early_break_profiled(const traj::Trajectory& t1,
                                                const traj::Trajectory& t2,
                                                kernels::KernelPolicy policy) {
  HausdorffProfile p;
  p.distance = hausdorff_packed_rmsd(t1, t2, /*early_break=*/true, policy,
                                     &p.metric_evals);
  return p;
}

}  // namespace mdtask::analysis
