#include "mdtask/analysis/rmsd_series.h"

#include "mdtask/analysis/rmsd.h"

namespace mdtask::analysis {

double rmsd_to_reference(std::span<const traj::Vec3> frame,
                         std::span<const traj::Vec3> reference,
                         bool superpose) {
  return superpose ? kabsch_rmsd(frame, reference)
                   : frame_rmsd(frame, reference);
}

void rmsd_series_block(const traj::Trajectory& trajectory,
                       std::span<const traj::Vec3> reference,
                       std::size_t begin, std::size_t end, bool superpose,
                       std::span<double> out) {
  for (std::size_t f = begin; f < end; ++f) {
    out[f] = rmsd_to_reference(trajectory.frame(f), reference, superpose);
  }
}

std::vector<double> rmsd_series(const traj::Trajectory& trajectory,
                                const RmsdSeriesOptions& options) {
  std::vector<double> out(trajectory.frames(), 0.0);
  if (trajectory.frames() == 0) return out;
  rmsd_series_block(trajectory, trajectory.frame(options.reference_frame),
                    0, trajectory.frames(), options.superpose, out);
  return out;
}

}  // namespace mdtask::analysis
