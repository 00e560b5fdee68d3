// The virtual-time task-wave replay: one DES for the fault study, the
// elasticity study and the closed-loop study.
//
// A wave of tasks runs on a sim::Resource pool. Faults fire mid-flight
// through the pure-hash FaultInjector, one draw per (task, attempt):
// stragglers stretch a task (optionally backed up by the plan's
// fixed-threshold speculation), filesystem stalls add delay, OOM kills
// and partitions burn part of the attempt before the engine's recovery
// policy retries it, and node crashes additionally take a core offline
// for the repair window. A MembershipPlan plays scheduled joins and
// leaves, and an optional AutoscaleController ticks on a fixed
// virtual-time cadence, resizing the pool (TargetUtilizationPolicy)
// and backup-submitting tasks older than k x p95
// (StragglerSpeculationPolicy; first completion wins, the other copy
// is cancelled). Membership events and controller decisions act
// through one simulated-pool EngineActions: departures follow
// departure_for()
// — drain (Dask, RP) lets in-flight holds finish, kill (Spark lineage
// loss, MPI checkpoint-restart) preempts the youngest holds, which
// restart from scratch — MPI is rigid (joins are logged without
// growing the pool, controller resizes become rigid vetoes), and no
// shrink takes the pool below one server.
//
// Single-threaded virtual time and pure-hash draws: the same inputs
// give byte-identical outcomes, canonical RecoveryLogs and traces. A
// controller with both policies gated off changes nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdtask/autoscale/controller.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/membership.h"
#include "mdtask/fault/recovery.h"

namespace mdtask::autoscale {

/// One pool-size observation for the pool-size-over-time bench tables.
struct PoolSample {
  double at_s = 0.0;
  std::size_t servers = 0;
};

/// Outcome of one task-wave replay.
struct TaskWaveOutcome {
  /// Every task finished; false when a give-up ended one.
  bool completed = true;
  std::string failure;  ///< first give-up, when !completed
  double makespan_s = 0.0;  ///< last task completion (virtual time)
  std::uint64_t faults_injected = 0;
  std::uint64_t stragglers = 0;  ///< straggler faults among them
  std::uint64_t retries = 0;
  /// Backup copies: the plan's fixed-threshold ones plus the
  /// controller's k x p95 ones.
  std::uint64_t speculative_copies = 0;
  std::uint64_t joins = 0;      ///< membership join events applied
  std::uint64_t leaves = 0;     ///< membership leave events applied
  std::uint64_t preempted = 0;  ///< in-flight holds displaced by kills
  std::uint64_t ticks = 0;      ///< control ticks evaluated
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t rigid_vetoes = 0;  ///< decisions MPI could not act on
  std::size_t peak_pool = 0;
  std::size_t final_pool = 0;  ///< pool size when the replay drained
  /// Effective task latency (first dispatch to first completion,
  /// nearest-rank over all tasks): the tail speculation is meant to cut.
  double p50_task_s = 0.0;
  double p95_task_s = 0.0;
  double p99_task_s = 0.0;
};

/// Replays `durations` on a pool of `cores` servers (at least one) with
/// the plan's faults injected and `engine`'s recovery policy applied.
///
///  * `log` (optional) receives every recovery decision, membership
///    event and controller decision stamped with virtual microseconds
///    (pure slowdowns — stragglers without speculation, FS stalls —
///    trigger no decision and are only counted); attach a tracer to the
///    log to mirror them as `recovery:*`, `elastic:*` and
///    `autoscale:*` instants.
///  * `membership` (optional) plays its joins (after the plan's
///    warm-up) and leaves (with the plan's departure policy).
///  * `pool_timeline` (optional) samples (virtual time, pool size) at
///    start and after every membership event and every controller
///    resize.
///  * `controller` ticks every tick_interval_s virtual seconds when
///    enabled; its scale-downs use the engine's default departure.
TaskWaveOutcome simulate_task_wave(
    std::size_t cores, const std::vector<double>& durations,
    const fault::FaultPlan& plan, fault::EngineId engine,
    fault::RecoveryLog* log = nullptr,
    const fault::MembershipPlan* membership = nullptr,
    std::vector<PoolSample>* pool_timeline = nullptr,
    const AdaptiveConfig& controller = {});

}  // namespace mdtask::autoscale
