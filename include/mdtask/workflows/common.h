// Shared vocabulary and engine harness for the engine-parallel
// application drivers.
//
// PSA, the Leaflet Finder and RepEx carry the same infrastructure —
// worker count, tracer, fault plan, recovery log, membership plan,
// closed-loop autoscaling — declared once in EngineOptions. Every runner
// (run_frame_series too, with default options) builds its engines only
// through the harness below, so each engine is constructed, traced,
// faulted, resized, autoscaled and counted in one place:
//  * EngineSession<Engine> — one live Spark, Dask or RP engine per run;
//  * run_mpi_job           — one rigid MPI job per run;
//  * run_span              — the run's "workflow"/"driver" span.
// Each runner keeps its own algorithm and engine idiom on top.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "mdtask/autoscale/adapters.h"
#include "mdtask/autoscale/controller.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/membership.h"
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

/// Knobs for closed-loop elasticity on a live engine run — the
/// policy-driven alternative to a fixed MembershipPlan schedule.
struct AdaptiveConfig {
  bool enabled = false;
  autoscale::TargetUtilizationPolicy::Config utilization;
  autoscale::StragglerSpeculationPolicy::Config speculation;
  bool scaling_enabled = true;
  bool speculation_enabled = true;
  /// Wall seconds between control ticks.
  double tick_interval_s = 0.05;
  /// Completed-task duration window fed to the policies.
  std::size_t metrics_capacity = 1024;
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
  /// Optional membership schedule (mdtask/fault/membership.h): an
  /// ElasticDriver applies its join/leave events to the live engine
  /// while the run executes, each join after the plan's join_warmup_s.
  /// MPI ignores it — the rigid baseline cannot resize; use the DES
  /// layer (simulate_task_wave) to model its shrink-restart cost.
  const fault::MembershipPlan* membership_plan = nullptr;
  /// Closed-loop elasticity (mdtask/autoscale): when enabled, an
  /// AdaptiveDriver observes the live engine and resizes / speculates
  /// by policy instead of a fixed schedule. Composes with
  /// membership_plan (the plan plays churn, the controller reacts).
  /// On MPI the controller only records rigid vetoes.
  AdaptiveConfig adaptive;
};

/// Applies a seeded MembershipPlan to a live engine while a workflow
/// runs: a background thread sleeps to each event's effective time —
/// wall seconds from construction: at_s for a leave, at_s plus the
/// plan's join_warmup_s for a join, as the DES applies them — and
/// applies it through the engine's autoscale actions (a join grows the
/// pool, a leave shrinks it). Scoped — the destructor cancels unfired
/// events and joins, so keep one alive for exactly the duration of the
/// engine run (EngineSession does).
class ElasticDriver {
 public:
  /// Starts the schedule. A null/empty plan is inert.
  ElasticDriver(const fault::MembershipPlan* plan,
                autoscale::EngineActions actions);
  ~ElasticDriver();

  ElasticDriver(const ElasticDriver&) = delete;
  ElasticDriver& operator=(const ElasticDriver&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Runs an AutoscaleController against a live engine while a workflow
/// runs: a background thread ticks every `tick_interval_s`, observing
/// the engine through the adapter and acting through its callbacks.
/// Scoped like ElasticDriver — the destructor stops the ticker and
/// joins, so keep one alive for exactly the duration of the engine run
/// (EngineSession and run_mpi_job do). A disabled config is inert.
class AdaptiveDriver {
 public:
  /// `window` is the same MetricsWindow handed to the engine's config
  /// (completed-task durations) and must outlive the driver; `log`
  /// (optional) receives AutoscaleRecords.
  AdaptiveDriver(const AdaptiveConfig& config,
                 autoscale::EngineAdapter adapter,
                 autoscale::MetricsWindow* window,
                 fault::RecoveryLog* log = nullptr);
  ~AdaptiveDriver();

  AdaptiveDriver(const AdaptiveDriver&) = delete;
  AdaptiveDriver& operator=(const AdaptiveDriver&) = delete;

  /// Control ticks evaluated so far.
  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  autoscale::TargetUtilizationPolicy utilization_policy_;
  autoscale::StragglerSpeculationPolicy speculation_policy_;
  std::function<void(autoscale::MetricsWindow&)> observe_;
  autoscale::MetricsWindow* window_ = nullptr;
  std::unique_ptr<autoscale::AutoscaleController> controller_;
  std::atomic<std::uint64_t> ticks_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
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
/// EngineOptions: the tracer is attached before any driver starts, the
/// membership plan plays through the engine's autoscale adapter (with
/// the plan's departure policy; RP always drains), and an
/// AdaptiveDriver ticks when options.adaptive is enabled. Both drivers
/// stop before the engine is destroyed.
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
  autoscale::MetricsWindow window_;
  Engine engine_;
  std::optional<ElasticDriver> elastic_;
  std::optional<AdaptiveDriver> adaptive_;
};

extern template class EngineSession<spark::SparkContext>;
extern template class EngineSession<dask::DaskClient>;
extern template class EngineSession<rp::UnitManager>;

using SparkSession = EngineSession<spark::SparkContext>;
using DaskSession = EngineSession<dask::DaskClient>;
using RpSession = EngineSession<rp::UnitManager>;

/// Runs one rigid MPI job of a workflow on `ranks` ranks: an
/// AdaptiveDriver (options.adaptive) records vetoed resize decisions
/// while `body` runs under mpi::run_spmd_with_recovery when
/// options.fault_plan is set and non-empty, and under mpi::run_spmd
/// otherwise (the body then gets a job-local CheckpointStore). A
/// budget-exhausted plan propagates fault::InjectedFault (MPI_Abort
/// semantics); each runner applies its own error policy. The
/// membership plan is ignored: the rigid world cannot resize.
mpi::SpmdReport run_mpi_job(const EngineOptions& options, int ranks,
                            const mpi::RecoverableSpmdBody& body);

/// Opens the whole-run span "<workflow>/<engine>" on the shared
/// "workflow" process's "driver" track, enclosing the engine-level
/// spans the run emits below it; inert without a tracer.
trace::Span run_span(trace::Tracer* tracer, std::string_view workflow,
                     EngineKind engine);

}  // namespace mdtask::workflows
