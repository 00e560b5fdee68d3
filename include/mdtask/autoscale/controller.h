// Actuation side of the mdtask::autoscale control loop.
//
// An AutoscaleController closes the loop each tick: snapshot the
// MetricsWindow, ask the policies for a verdict, apply it through the
// engine's resize/speculation callbacks, and record what happened in
// the RecoveryLog (AutoscaleRecord, mirrored as `autoscale:*` trace
// instants when the log has a tracer attached).
//
// Per-engine actuation (docs/AUTOSCALING.md):
//  * Spark — add_executors / decommission_executors + speculate_inflight
//  * Dask  — add_workers / retire_workers + speculate_inflight
//  * RP    — grow_pilot / shrink_pilot (no unit-level speculation: a CU
//            is atomic at the pilot level)
//  * MPI   — rigid: the controller records the decision it cannot act
//            on as a rigid-veto, mirroring the paper's rigid baseline.
//
// Who calls tick() decides the clock: the DES ticks in virtual time
// (simulate_task_wave, autoscale/task_wave.h), live runs tick from a
// wall-clock AdaptiveDriver thread. Both build the controller from the
// same AdaptiveConfig. The controller itself never reads a clock, so
// decision sequences are a deterministic function of the observed
// snapshots.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mdtask/autoscale/metrics.h"
#include "mdtask/autoscale/policy.h"
#include "mdtask/fault/recovery.h"

namespace mdtask::autoscale {

/// How the controller reaches one engine. All callbacks are optional;
/// a missing callback turns the corresponding decision into a no-op
/// (rigid engines instead set `rigid` so vetoes are recorded).
struct EngineActions {
  fault::EngineId engine = fault::EngineId::kSpark;
  /// Rigid pool (MPI): resize decisions are logged as rigid-veto
  /// instead of applied.
  bool rigid = false;
  /// Adds `count` servers; returns how many joined.
  std::function<std::size_t(std::size_t count)> grow;
  /// Removes `count` servers (with the departure semantics the adapter
  /// was built with); returns how many actually left.
  std::function<std::size_t(std::size_t count)> shrink;
  /// Backup-submits every in-flight task older than `threshold_s`;
  /// returns the number of copies submitted.
  std::function<std::size_t(double threshold_s)> speculate;
  /// Post-action pool size, for exact AutoscaleRecord bookkeeping.
  /// Missing: the controller derives it from the snapshot +/- applied.
  std::function<std::size_t()> pool_size;
};

/// Knobs of one closed control loop, shared by the live AdaptiveDriver
/// (workflows/common.h) and the DES replay (simulate_task_wave).
/// Scaling and speculation can be gated independently so benches can
/// attribute wins to one mechanism.
struct AdaptiveConfig {
  bool enabled = false;
  TargetUtilizationPolicy::Config utilization;
  StragglerSpeculationPolicy::Config speculation;
  bool scaling_enabled = true;
  bool speculation_enabled = true;
  /// Seconds between control ticks: wall seconds live, virtual seconds
  /// in the DES (the published replays tick every 0.5 s).
  double tick_interval_s = 0.05;
};

/// Result of one control tick (what the bench tables report).
struct TickResult {
  Decision decision;           ///< first non-hold resize verdict
  std::size_t applied = 0;     ///< servers actually added/removed
  std::size_t speculated = 0;  ///< backup copies submitted this tick
  bool vetoed = false;         ///< resize decision hit a rigid pool
  MetricsSnapshot snapshot;    ///< the observation the tick acted on
};

/// Drives policies against one engine. Single ticker: exactly one
/// thread (or the DES event loop) calls tick(); the window it observes
/// may be fed concurrently by engine workers.
class AutoscaleController {
 public:
  /// `policies`, `window` and `log` are borrowed and must outlive the
  /// controller. Policy order matters: the first non-hold resize
  /// verdict wins the tick; speculation takes the first policy with a
  /// positive threshold.
  AutoscaleController(EngineActions actions, std::vector<Policy*> policies,
                      MetricsWindow* window,
                      fault::RecoveryLog* log = nullptr)
      : actions_(std::move(actions)),
        policies_(std::move(policies)),
        window_(window),
        log_(log) {}

  /// The controller of `config`: it owns one TargetUtilizationPolicy
  /// and one StragglerSpeculationPolicy built from the config's policy
  /// knobs and enables them per its gates, scaling first. `window` and
  /// `log` are borrowed.
  AutoscaleController(const AdaptiveConfig& config, EngineActions actions,
                      MetricsWindow* window,
                      fault::RecoveryLog* log = nullptr);

  /// Not copyable: the policy list may point at the owned policies.
  AutoscaleController(const AutoscaleController&) = delete;
  AutoscaleController& operator=(const AutoscaleController&) = delete;

  /// One control tick at `now_s` (the caller's clock). Observes,
  /// decides, acts, records.
  TickResult tick(double now_s);

  /// Actionable decisions recorded so far (the AutoscaleRecord seq of
  /// the next decision).
  std::size_t decisions() const noexcept { return seq_; }

  const EngineActions& actions() const noexcept { return actions_; }

  /// Resets every policy and the decision counter for a fresh run.
  void reset();

 private:
  void record(fault::AutoscaleAction action, std::size_t count,
              std::size_t pool, std::size_t queue_depth, double now_s);

  EngineActions actions_;
  std::vector<Policy*> policies_;
  MetricsWindow* window_;
  fault::RecoveryLog* log_;
  std::size_t seq_ = 0;
  TargetUtilizationPolicy utilization_;
  StragglerSpeculationPolicy speculation_;
};

}  // namespace mdtask::autoscale
