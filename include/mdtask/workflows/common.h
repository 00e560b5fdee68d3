// Shared vocabulary and engine harness for the engine-parallel
// application drivers.
//
// PSA, the Leaflet Finder and RepEx carry the same infrastructure —
// worker count, tracer, fault plan, recovery log — declared once in
// EngineOptions. Every runner (run_frame_series too, with default
// options) builds its engines only through the harness below, so each
// engine is constructed, traced, faulted and counted in one place:
//  * EngineSession<Engine> — one live Spark, Dask or RP engine per run;
//  * run_mpi_job           — one rigid MPI job per run;
//  * run_span              — the run's "workflow"/"driver" span.
// Each runner keeps its own algorithm and engine idiom on top.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::workflows {

/// Which mini-framework executes the workload (Sec. 3).
enum class EngineKind { kMpi, kSpark, kDask, kRp };

const char* to_string(EngineKind kind) noexcept;

/// Out-of-core input for the streamed workflow entry points: a sharded
/// store (stream/shard_format.h) map tasks read their own slice of,
/// instead of slicing an in-memory array. How the slices map to engine
/// work units follows each engine's idiom — MPI ranks read their
/// block-cyclic share, Spark partitions and Dask tasks read per-block,
/// RP units stage their inputs — but all of them go through one shared
/// ShardReader, so results stay bit-identical to the in-memory runs.
struct StreamInput {
  std::string path;  ///< sharded .mds store
  stream::ShardReader::Mode mode = stream::ShardReader::Mode::kStream;
  /// PSA only: trajectories in the store (the store's frame count must
  /// divide evenly). Ignored by the Leaflet Finder (one point per
  /// stored frame).
  std::size_t trajectories = 0;
};

/// Plain-value snapshot of engine counters after a run (non-atomic copy
/// of engines::EngineMetrics plus workload-level measurements).
struct RunMetrics {
  std::uint64_t tasks = 0;
  std::uint64_t stages = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t db_roundtrips = 0;
  double wall_seconds = 0.0;
};

/// The infrastructure every workflow runner carries. PsaRunConfig,
/// LfRunConfig and repex::RepexConfig derive from it; the pointer
/// members are borrowed and must outlive the run.
struct EngineOptions {
  /// Cores: MPI ranks, Spark executor threads, Dask workers, RP pilot
  /// cores.
  std::size_t workers = 4;
  /// When set, the run registers engine/worker tracks on this tracer and
  /// emits spans for the engine's stages, tasks, collectives and staging
  /// phases (export with trace::write_chrome_trace).
  trace::Tracer* tracer = nullptr;
  /// Optional failure model (mdtask/fault). When set and non-empty, the
  /// engine injects the plan's faults into its tasks and recovers with
  /// its native policy (Spark lineage re-execution, Dask worker restart,
  /// RP retry+backoff, MPI checkpoint-abort-restart).
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional sink for every fault/recovery decision the run makes.
  fault::RecoveryLog* recovery_log = nullptr;
};

/// Engine-specific construction knobs a runner adds to its
/// EngineOptions; zero keeps the engine's default.
struct EngineExtras {
  /// Spark and Dask: simulated per-task memory limit (Leaflet Finder).
  std::uint64_t task_memory_limit = 0;
  /// RP: modelled DB roundtrip latency per unit-state transition
  /// (RepEx).
  double db_roundtrip_latency_s = 0.0;
};

/// One live engine — spark::SparkContext, dask::DaskClient or
/// rp::UnitManager — for the duration of one workflow run, built from
/// EngineOptions with the tracer attached before any work is submitted.
template <typename Engine>
class EngineSession {
 public:
  explicit EngineSession(const EngineOptions& options,
                         const EngineExtras& extras = {});

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  Engine& engine() noexcept { return engine_; }

  /// The engine's counters (engines::EngineMetrics) as RunMetrics;
  /// wall_seconds is the runner's to fill.
  RunMetrics metrics();

 private:
  Engine engine_;
};

extern template class EngineSession<spark::SparkContext>;
extern template class EngineSession<dask::DaskClient>;
extern template class EngineSession<rp::UnitManager>;

using SparkSession = EngineSession<spark::SparkContext>;
using DaskSession = EngineSession<dask::DaskClient>;
using RpSession = EngineSession<rp::UnitManager>;

/// Runs one rigid MPI job of a workflow on `ranks` ranks: `body` runs
/// under mpi::run_spmd_with_recovery when options.fault_plan is set and
/// non-empty, and under mpi::run_spmd otherwise (the body then gets a
/// job-local CheckpointStore). A budget-exhausted plan propagates
/// fault::InjectedFault (MPI_Abort semantics); each runner applies its
/// own error policy.
mpi::SpmdReport run_mpi_job(const EngineOptions& options, int ranks,
                            const mpi::RecoverableSpmdBody& body);

/// Opens the whole-run span "<workflow>/<engine>" on the shared
/// "workflow" process's "driver" track, enclosing the engine-level
/// spans the run emits below it; inert without a tracer.
trace::Span run_span(trace::Tracer* tracer, std::string_view workflow,
                     EngineKind engine);

}  // namespace mdtask::workflows
