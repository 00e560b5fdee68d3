// Engine-parallel Path Similarity Analysis (Sec. 4.2).
//
// PSA is embarrassingly parallel: the N x N Hausdorff matrix is cut into
// 2-D blocks (Alg. 2), one task per block, with no inter-task
// communication. Unlike the paper, the tasks cover only the upper
// triangle (analysis::make_psa_blocks) and emit their (i, j, distance)
// entries for i < j; the matrix is assembled in one place, which sets
// each entry and its mirror. Each engine implementation otherwise
// follows the paper's:
//  * MPI    — ranks own a block-cyclic share of the blocks; each rank's
//             entries are gathered to rank 0.
//  * Spark  — one RDD partition per block, map-only job, collect().
//  * Dask   — one delayed task per block, futures gathered.
//  * RP     — one Compute-Unit per block, entries staged through the
//             shared filesystem (RP has no collectives).
//
// Each engine is built through the workflows harness (common.h), so
// faults and tracing apply to PSA as to every other runner.
#pragma once

#include "mdtask/analysis/psa.h"
#include "mdtask/traj/trajectory.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

/// Trajectory-pair metric for the PSA matrix.
enum class PsaMetric {
  kHausdorff,           ///< Alg. 1 (the paper's experiments)
  kHausdorffEarlyBreak, ///< Taha-Hanbury variant, identical values
  kFrechet,             ///< PSA's second published metric
};

/// PSA's own knobs on top of the shared EngineOptions (workers, tracer,
/// fault plan, recovery log; see common.h).
struct PsaRunConfig : EngineOptions {
  /// Alg. 2 block size n1; 0 picks n1 so the upper-triangular block
  /// count ~= 2x workers (the paper generates one task per core).
  std::size_t block_size = 0;
  PsaMetric metric = PsaMetric::kHausdorff;
};

struct PsaRunResult {
  analysis::DistanceMatrix matrix;
  RunMetrics metrics;
};

/// Runs PSA over `ensemble` on the chosen engine. All engines produce a
/// bit-identical matrix (asserted by the integration tests). Throws
/// std::invalid_argument, before any task runs, when the trajectories'
/// atom counts differ.
PsaRunResult run_psa(EngineKind engine, const traj::Ensemble& ensemble,
                     const PsaRunConfig& config = {});

/// Out-of-core PSA: the ensemble lives in a sharded store (write it
/// with stream::write_sharded over the concatenated trajectories;
/// input.trajectories = N) and every block task reads only its row/col
/// trajectories through a shared ShardReader — the ensemble is never
/// materialized whole. The matrix is bit-identical to run_psa on the
/// ensemble the store was written from (guarded by the stream workflow
/// tests); the store's bytes read are accounted in
/// metrics.staged_bytes. Fails with kFormatError/kInvalidArgument when
/// the store cannot be opened or its frames do not divide into
/// input.trajectories.
Result<PsaRunResult> run_psa_streamed(EngineKind engine,
                                      const StreamInput& input,
                                      const PsaRunConfig& config = {});

/// The n1 actually used for a given config/ensemble (exposed for benches).
std::size_t psa_effective_block_size(std::size_t n_trajectories,
                                     const PsaRunConfig& config);

}  // namespace mdtask::workflows
