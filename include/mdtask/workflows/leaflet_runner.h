// Engine-parallel Leaflet Finder (Sec. 4.3, Table 2).
//
// Four architectural approaches, each runnable on every engine:
//  1. Broadcast + 1-D partitioning — the whole system is shipped to all
//     workers; map tasks cdist a row chunk against everything; the edge
//     list is gathered and connected components run at the driver.
//  2. Task API + 2-D partitioning — tasks receive pre-partitioned block
//     pairs; cdist within the block; edges gathered; CC at the driver.
//  3. Parallel connected components — as 2, but map tasks compute partial
//     components of their block and the reduce merges summaries
//     (shuffles O(n) instead of O(E)).
//  4. Tree-search — as 3, with BallTree edge discovery instead of cdist.
//
// Map tasks of approaches 1-3 find their edges with the exact streaming
// cutoff kernel (analysis::lf_edges_1d/2d) rather than a materialized
// cdist block, but a configurable simulated per-task memory limit still
// charges the cdist block and so reproduces the paper's memory wall:
// oversized blocks fail the task (Spark/MPI abort, Dask retries through
// simulated worker restarts, RP marks units FAILED).
//
// Each engine is built through the workflows harness (common.h); an MPI
// job whose fault plan exhausts its retry budget returns a typed
// kUnavailable Error carrying the failed task's context.
#pragma once

#include <span>

#include "mdtask/analysis/leaflet.h"
#include "mdtask/common/error.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

/// The Leaflet Finder's own knobs on top of the shared EngineOptions
/// (workers, tracer, fault/membership plans, recovery log, adaptive; see
/// common.h).
struct LfRunConfig : EngineOptions {
  /// Map-task count target (the paper uses 1024; 42k for 4M + approach 3).
  std::size_t target_tasks = 64;
  /// Simulated per-task transient memory limit in bytes (0 = unlimited).
  /// Approaches 1-3 reserve their cdist block against it; approach 4's
  /// BallTree footprint is far smaller (the paper's Sec. 4.3.4 point).
  std::uint64_t task_memory_limit = 0;
};

struct LfRunResult {
  analysis::LeafletResult leaflets;
  RunMetrics metrics;
  std::uint64_t edges_found = 0;      ///< approaches 1-2 (gathered edges)
  std::uint64_t worker_restarts = 0;  ///< Dask memory-guard kills
  double distribute_seconds = 0.0;    ///< data distribution phase (Fig. 8)
};

/// Runs the Leaflet Finder. Returns kResourceExhausted when the memory
/// limit makes the configuration infeasible (the paper's OOM cases) and
/// kInvalidArgument for an unknown approach.
Result<LfRunResult> run_leaflet_finder(EngineKind engine, int approach,
                                       std::span<const traj::Vec3> atoms,
                                       double cutoff,
                                       const LfRunConfig& config = {});

/// Out-of-core Leaflet Finder: positions come from a sharded store
/// (write them with stream::write_sharded_points) and map tasks load
/// only their block's row/col ranges through a shared ShardReader. For
/// approaches 2-4 each shard is read, verified and decoded at most once
/// per run, by the first task that needs it, and shared by every later
/// task that overlaps it; so a streamed run holds at most the store's
/// decoded size, shared across its tasks, plus each task's own chunk
/// copies. Approach 1 is broadcast-everything by
/// definition, so it loads the store once and runs the in-memory path.
/// Results are bit-identical to run_leaflet_finder on the array the
/// store was written from (guarded by the stream workflow tests); the
/// store's bytes read are accounted in metrics.staged_bytes.
Result<LfRunResult> run_leaflet_finder_streamed(EngineKind engine,
                                                int approach,
                                                const StreamInput& input,
                                                double cutoff,
                                                const LfRunConfig& config = {});

}  // namespace mdtask::workflows
