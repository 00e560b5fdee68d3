// Fault-model helpers for the discrete-event replays.
//
//  * resolve_plan() — the feasibility oracle. Given a plan's scheduled
//    faults and an engine's retry policy, decides whether the workload
//    survives: the paper's Fig. 7 failure cells (Dask broadcast at
//    >= 524k atoms, cdist OOM at 4M, Dask restart exhaustion) are
//    produced by feeding physics-derived fault injections through this
//    resolution instead of hard-coded branches.
//  * simulate_checkpointed_job() and the checkpoint cost model — the
//    rigid-baseline checkpoint-interval study.
//
// The virtual-time task-wave replay with faults, membership and the
// autoscale controller is autoscale::simulate_task_wave
// (autoscale/task_wave.h).
#pragma once

#include <cstdint>

#include "mdtask/fault/fault.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::fault {

/// Verdict of resolve_plan: did the engine's recovery policy out-retry
/// the scheduled faults?
struct PlanResolution {
  bool survives = true;
  FaultKind fatal_fault = FaultKind::kNone;  ///< first unrecoverable kind
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;  ///< recovery attempts that were granted
};

/// Walks the plan's scheduled faults against `engine`'s retry policy
/// (plan.retry): each faulting task is retried per the engine's recovery
/// action until an attempt passes cleanly or the budget is exhausted.
/// Faults covering every attempt (FaultSpec::kEveryAttempt) are
/// deterministic physics — no amount of lineage re-execution or worker
/// restarting survives them. Events are recorded into `log` if given.
PlanResolution resolve_plan(const FaultPlan& plan, EngineId engine,
                            RecoveryLog* log = nullptr);

/// Outcome of a rigid checkpointed-job replay (simulate_checkpointed_job).
struct CheckpointSweepPoint {
  double interval_s = 0.0;
  double total_s = 0.0;  ///< completion time including all overheads
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
};

/// Walks a rigid SPMD job of `work_s` seconds through failures with
/// mean-time-between-failures `mtbf_s` (exponential arrivals drawn by
/// the same pure hash as the injector, keyed on (seed, failure index)):
/// the job checkpoints every `interval_s` at `checkpoint_s` cost, and a
/// failure rolls back to the last checkpoint after `restart_s`. The
/// Daly/Young trade-off swept by bench_future_work: short intervals pay
/// checkpoint overhead, long ones re-execute more lost work.
CheckpointSweepPoint simulate_checkpointed_job(double work_s,
                                               double interval_s,
                                               double checkpoint_s,
                                               double restart_s,
                                               double mtbf_s,
                                               std::uint64_t seed);

/// Daly's first-order optimum checkpoint interval sqrt(2 * delta * M)
/// - delta for checkpoint cost delta and MTBF M (clamped positive).
double daly_optimum_interval(double checkpoint_s, double mtbf_s) noexcept;

/// Checkpoint cost model calibrated against a machine's shared parallel
/// filesystem (size-dependent alpha-beta: ~1 ms metadata latency plus
/// bytes / machine.filesystem_Bps each way).
CheckpointCostModel checkpoint_model_for(
    const sim::MachineProfile& machine) noexcept;

}  // namespace mdtask::fault
