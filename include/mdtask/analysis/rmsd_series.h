// Per-frame RMSD time series (Sec. 2: "RMSD is used to identify the
// deviation of atom positions between frames").
//
// The series is the classic first MD analysis: RMSD of every frame
// against a reference conformation, optionally after optimal (Kabsch)
// superposition. rmsd_to_reference is the per-frame observable the
// engines map over frame blocks (workflows/rmsd_runner.h).
#pragma once

#include <span>
#include <vector>

#include "mdtask/traj/trajectory.h"

namespace mdtask::analysis {

struct RmsdSeriesOptions {
  std::size_t reference_frame = 0;  ///< which frame is the reference
  bool superpose = false;           ///< Kabsch-align each frame first
};

/// One series entry: RMSD of `frame` against `reference`, after optimal
/// (Kabsch) superposition when `superpose` is set.
double rmsd_to_reference(std::span<const traj::Vec3> frame,
                         std::span<const traj::Vec3> reference,
                         bool superpose);

/// RMSD of every frame against the reference frame. Serial reference.
std::vector<double> rmsd_series(const traj::Trajectory& trajectory,
                                const RmsdSeriesOptions& options = {});

/// Computes series entries for frames [begin, end) into
/// out[begin..end) against the `reference` conformation.
void rmsd_series_block(const traj::Trajectory& trajectory,
                       std::span<const traj::Vec3> reference,
                       std::size_t begin, std::size_t end, bool superpose,
                       std::span<double> out);

}  // namespace mdtask::analysis
