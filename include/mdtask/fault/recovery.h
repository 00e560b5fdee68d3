// Per-engine recovery policies and the shared recovery event log.
//
// Each engine answers an injected fault the way its real counterpart
// does (Sec. 3 semantics):
//  * Spark  — lineage re-execution: the lost partition is recomputed
//             from its (possibly cached) parents.
//  * Dask   — the killed worker restarts and the task is rescheduled;
//             bounded by the allowed-failures budget.
//  * RP     — pilot-level retry with exponential backoff and bounded
//             attempts.
//  * MPI    — checkpoint/abort/restart: the whole job aborts and
//             relaunches from the last checkpoint.
//
// Every fault and every recovery decision is recorded in a RecoveryLog
// and (optionally) mirrored into mdtask::trace as zero-duration spans in
// the "fault"/"recovery" categories, so Chrome traces show exactly where
// a run bled and how it healed (docs/RESILIENCE.md).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdtask/fault/fault.h"
#include "mdtask/fault/membership.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::fault {

/// What a recovery policy decided to do about one fault.
enum class RecoveryAction {
  kReexecuteLineage,   ///< Spark: recompute the lost partition
  kRestartWorker,      ///< Dask: restart the worker, reschedule the task
  kRetryWithBackoff,   ///< RP: retry the unit after exponential backoff
  kCheckpointRestart,  ///< MPI: abort the job, restart from checkpoint
  kSpeculativeCopy,    ///< straggler mitigation: launch a backup copy
  kGiveUp,             ///< retry budget exhausted: surface the failure
};
const char* to_string(RecoveryAction action) noexcept;

/// The action an engine's policy takes for `kind` on retry `attempt`
/// (0-based attempt that just failed) under `policy`. Returns kGiveUp
/// once the budget is exhausted.
RecoveryAction recovery_action(EngineId engine, FaultKind kind, int attempt,
                               const RetryPolicy& policy) noexcept;

/// One fault + the recovery decision it triggered.
struct RecoveryEvent {
  EngineId engine = EngineId::kSpark;
  std::uint64_t task_id = 0;
  int attempt = 0;
  FaultKind fault = FaultKind::kNone;
  RecoveryAction action = RecoveryAction::kGiveUp;
  double backoff_s = 0.0;
  /// Virtual timestamp for DES emitters, wall microseconds otherwise
  /// (only used for trace mirroring; the canonical order ignores it).
  double ts_us = 0.0;

  /// "spark task=12 attempt=0 fault=worker-oom-kill action=..." — the
  /// comparison key of the determinism tests.
  std::string to_string() const;
};

/// One applied membership (elasticity) event: a node join or leave as
/// the pool actually absorbed it. `seq` is the schedule index, which
/// makes the canonical rendering a total order even when several events
/// share a kind and count.
struct MembershipRecord {
  EngineId engine = EngineId::kSpark;
  MembershipKind kind = MembershipKind::kNodeJoin;
  std::size_t seq = 0;        ///< index in the MembershipPlan schedule
  std::size_t count = 1;      ///< servers joining/leaving
  std::size_t pool_size = 0;  ///< pool size after the event applied
  std::size_t preempted = 0;  ///< in-flight tasks a kill-leave displaced
  /// Virtual timestamp for DES emitters, wall microseconds otherwise
  /// (trace mirroring only; the canonical order ignores it).
  double ts_us = 0.0;

  /// "dask elastic#1 node-leave count=2 pool=4 preempted=1" — the
  /// comparison key of the membership determinism tests.
  std::string to_string() const;
};

/// What a closed-loop autoscale controller decided at one control tick
/// (mdtask::autoscale). Only actionable decisions are recorded — holds
/// (no-ops) stay out of the log so canonical sequences do not depend on
/// the tick cadence.
enum class AutoscaleAction {
  kScaleUp,    ///< grow the pool (Spark/Dask/RP resize APIs)
  kScaleDown,  ///< shrink the pool (per-engine departure policy)
  kSpeculate,  ///< backup-submit an in-flight straggler
  kRigidVeto,  ///< decision the engine cannot act on (MPI rigid pool)
};
const char* to_string(AutoscaleAction action) noexcept;

/// One applied (or vetoed) autoscale decision. `seq` is the decision
/// index assigned by the controller, which totally orders the canonical
/// rendering even when decisions repeat.
struct AutoscaleRecord {
  EngineId engine = EngineId::kSpark;
  AutoscaleAction action = AutoscaleAction::kScaleUp;
  std::size_t seq = 0;        ///< controller decision index
  std::size_t count = 0;      ///< servers requested (scale) / copies (spec)
  std::size_t pool_size = 0;  ///< pool size after the decision applied
  std::size_t queue_depth = 0;  ///< queue depth observed at decision time
  std::uint64_t task_id = 0;  ///< straggler task for kSpeculate, else 0
  /// Virtual timestamp for DES emitters, wall microseconds otherwise
  /// (trace mirroring only; the canonical order ignores it).
  double ts_us = 0.0;

  /// "dask autoscale#2 scale-up count=4 pool=12 queue=37 task=0" — the
  /// comparison key of the adaptive determinism tests.
  std::string to_string() const;
};

/// One attempted replica-exchange swap (mdtask::repex). Deliberately
/// engine-free: the exchange decision stream is a pure function of
/// (seed, round, slots, energies), so the same seed must render the
/// same canonical lines on every engine and in the DES twin — an
/// engine tag here would break the cross-engine byte-identity contract.
struct ExchangeRecord {
  std::size_t round = 0;
  std::size_t slot_lo = 0;    ///< lower ladder slot of the pair
  std::size_t slot_hi = 0;    ///< upper ladder slot of the pair
  std::size_t config_lo = 0;  ///< configuration at slot_lo pre-swap
  std::size_t config_hi = 0;  ///< configuration at slot_hi pre-swap
  bool accepted = false;
  /// Virtual timestamp for DES emitters, wall microseconds otherwise
  /// (trace mirroring only; the canonical order ignores it).
  double ts_us = 0.0;

  /// "repex round=2 pair=1/2 configs=3/0 accept=1" — the comparison
  /// key of the cross-engine and live-vs-DES determinism tests.
  std::string to_string() const;
};

/// Thread-safe ordered log of fault/recovery events. Worker threads
/// append concurrently, so the raw order is scheduling-dependent;
/// canonical() sorts by (task, attempt, fault, action) to give the
/// interleaving-independent sequence that same-seed runs must reproduce
/// exactly. Membership (elasticity) and autoscale decisions are logged
/// alongside and merged into the same canonical sequence.
class RecoveryLog {
 public:
  /// Mirrors every recorded event into `tracer` as a zero-duration span
  /// on `track` ("fault:<kind>" / "recovery:<action>" / "elastic:<kind>"
  /// / "autoscale:<action>", categories "fault"/"recovery"/"elastic"/
  /// "autoscale"). Call before the run; pass nullptr to stop.
  void attach_tracer(trace::Tracer* tracer, trace::Track track) {
    std::lock_guard lk(mu_);
    tracer_ = tracer;
    track_ = track;
  }

  void record(RecoveryEvent event);
  void record_membership(MembershipRecord event);
  void record_autoscale(AutoscaleRecord event);
  void record_exchange(ExchangeRecord event);

  std::vector<RecoveryEvent> events() const;
  std::vector<MembershipRecord> membership_events() const;
  std::vector<AutoscaleRecord> autoscale_events() const;
  std::vector<ExchangeRecord> exchange_events() const;
  /// Interleaving-independent rendering: one line per event (fault,
  /// membership, autoscale and exchange alike), sorted.
  std::vector<std::string> canonical() const;
  std::size_t size() const;  ///< fault/recovery events only
  std::size_t membership_size() const;
  std::size_t autoscale_size() const;
  std::size_t exchange_size() const;

 private:
  mutable std::mutex mu_;
  std::vector<RecoveryEvent> events_;
  std::vector<MembershipRecord> membership_;
  std::vector<AutoscaleRecord> autoscale_;
  std::vector<ExchangeRecord> exchange_;
  trace::Tracer* tracer_ = nullptr;
  trace::Track track_{};
};

/// Size-dependent alpha-beta cost model for checkpoint traffic against
/// the shared parallel filesystem: writing (restoring) `bytes` costs
/// latency + bytes / bandwidth modelled seconds. Bandwidth 0 keeps the
/// legacy zero-cost behaviour.
struct CheckpointCostModel {
  double write_latency_s = 0.0;
  double write_Bps = 0.0;
  double restore_latency_s = 0.0;
  double restore_Bps = 0.0;

  double write_s(std::uint64_t bytes) const noexcept {
    if (write_Bps <= 0.0) return 0.0;
    return write_latency_s + static_cast<double>(bytes) / write_Bps;
  }
  double restore_s(std::uint64_t bytes) const noexcept {
    if (restore_Bps <= 0.0) return 0.0;
    return restore_latency_s + static_cast<double>(bytes) / restore_Bps;
  }
};

/// In-memory checkpoint store for the MPI checkpoint/abort/restart
/// wrapper: survives across restart attempts of one logical job, so a
/// relaunched body can skip work it checkpointed before the abort.
/// With a cost model attached, every put/get accrues the modelled
/// shared-filesystem seconds it would have cost (accounted, not slept).
class CheckpointStore {
 public:
  void set_cost_model(CheckpointCostModel model);

  void put(const std::string& key, std::vector<std::uint8_t> data);
  bool contains(const std::string& key) const;
  std::vector<std::uint8_t> get(const std::string& key) const;
  std::size_t size() const;

  /// Total payload bytes currently stored.
  std::uint64_t bytes_stored() const;
  /// Modelled seconds spent writing checkpoints so far.
  double modeled_write_s() const;
  /// Modelled seconds spent restoring checkpoints so far.
  double modeled_restore_s() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<std::uint8_t>> store_;
  CheckpointCostModel cost_model_;
  double write_s_ = 0.0;
  mutable double restore_s_ = 0.0;
};

}  // namespace mdtask::fault
