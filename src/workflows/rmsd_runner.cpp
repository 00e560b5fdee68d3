#include "mdtask/workflows/rmsd_runner.h"

#include "mdtask/workflows/frame_series.h"

namespace mdtask::workflows {

RmsdRunResult run_rmsd_series(EngineKind engine,
                              const traj::Trajectory& trajectory,
                              const RmsdRunConfig& config) {
  if (trajectory.frames() == 0) return {};
  const auto reference = trajectory.frame(config.options.reference_frame);
  const bool superpose = config.options.superpose;
  auto run = run_frame_series(
      engine, trajectory,
      [reference, superpose](std::span<const traj::Vec3> frame) {
        return analysis::rmsd_to_reference(frame, reference, superpose);
      },
      {.workers = config.workers, .frame_block = config.frame_block});
  return {std::move(run.series), run.metrics};
}

}  // namespace mdtask::workflows
