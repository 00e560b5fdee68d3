// Engine-parallel RMSD time series.
//
// The third of the paper's named MD analyses (Sec. 2). A map-only job:
// frame blocks are the tasks, results concatenate into the series. A
// thin wrapper over run_frame_series (frame_series.h) with the per-frame
// RMSD against the reference conformation as the observable. Runs on
// every engine; identical output asserted by tests.
#pragma once

#include "mdtask/analysis/rmsd_series.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

struct RmsdRunConfig {
  std::size_t workers = 4;
  std::size_t frame_block = 0;  ///< frames per task (0 = frames/workers)
  analysis::RmsdSeriesOptions options;
};

struct RmsdRunResult {
  std::vector<double> series;
  RunMetrics metrics;
};

/// Computes the RMSD series of `trajectory` on the chosen engine.
RmsdRunResult run_rmsd_series(EngineKind engine,
                              const traj::Trajectory& trajectory,
                              const RmsdRunConfig& config = {});

}  // namespace mdtask::workflows
