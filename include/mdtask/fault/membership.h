// Elastic resource-pool membership: seeded node join/leave schedules.
//
// The paper's Sec.-6 future-work item — "dynamically scale the resource
// pool" — is the pilot-job elasticity story that motivated RADICAL-Pilot.
// A MembershipPlan is the arrival-side twin of FaultPlan: a seeded,
// deterministic schedule of NodeJoin/NodeLeave events that the DES
// task-wave replay (autoscale::simulate_task_wave) applies to its
// simulated pool mid-run, in the spirit of Dask's adaptive deployments
// and Spark's dynamic executor allocation. Each engine's departure
// semantics are modelled there; the live engines keep fixed-size pools.
//
// Determinism contract: churn_plan() draws event times through the same
// pure splitmix64 avalanche as FaultInjector — a function of (seed,
// engine scope, event stream, event index) with no shared RNG state —
// so the same seed reproduces the same membership schedule under any
// thread interleaving, and each engine scope is an independent stream.
#pragma once

#include <cstdint>
#include <vector>

#include "mdtask/fault/fault.h"

namespace mdtask::fault {

/// A membership transition of the worker pool.
enum class MembershipKind {
  kNodeJoin,   ///< capacity arrives (after an optional warm-up)
  kNodeLeave,  ///< capacity departs (drain or kill, per policy)
};
const char* to_string(MembershipKind kind) noexcept;

/// How departing nodes treat their in-flight work.
///
/// kEngineDefault resolves per engine, as the DES models each engine's
/// departures: Spark kills (decommissioned executors lose running
/// tasks; lineage recomputes them), Dask and RP drain (graceful leave:
/// the current task finishes, then the worker exits), MPI is rigid and
/// always pays the kill + checkpoint-restart path on any shrink.
enum class DeparturePolicy {
  kEngineDefault,
  kDrain,  ///< finish the current task, then leave; no work lost
  kKill,   ///< leave now; in-flight tasks are lost and rescheduled
};
const char* to_string(DeparturePolicy policy) noexcept;

/// One scheduled membership event. `at_s` is virtual seconds from the
/// start of the replay.
struct MembershipEvent {
  MembershipKind kind = MembershipKind::kNodeJoin;
  double at_s = 0.0;
  std::size_t count = 1;  ///< servers/workers joining or leaving
};

/// A complete elasticity scenario: seed + schedule + departure policy +
/// join warm-up cost. Consumed by the DES task-wave replay
/// (autoscale::simulate_task_wave) and the benches that drive it.
struct MembershipPlan {
  /// Same default as FaultPlan: the seed every bench prints.
  std::uint64_t seed = 42;
  std::vector<MembershipEvent> schedule;
  DeparturePolicy departure = DeparturePolicy::kEngineDefault;
  /// Seconds between a join event firing and the new servers actually
  /// serving (node boot + agent bootstrap cost).
  double join_warmup_s = 0.0;

  bool empty() const noexcept { return schedule.empty(); }
  std::size_t joins() const noexcept;
  std::size_t leaves() const noexcept;
};

/// Resolves kEngineDefault to the engine's native departure semantics
/// (Spark/MPI kill, Dask/RP drain); explicit policies pass through,
/// except that MPI is rigid and always kills.
DeparturePolicy departure_for(EngineId engine,
                              DeparturePolicy policy) noexcept;

/// Builds a seeded churn schedule: `joins` join events and `leaves`
/// leave events of `count_per_event` servers each, with times drawn
/// uniformly in (0, horizon_s) by the injector's pure hash over
/// (seed, engine, stream, index). Sorted by (time, kind, index) — a
/// total order, so the schedule is identical across runs and platforms.
MembershipPlan churn_plan(std::uint64_t seed, EngineId engine,
                          std::size_t joins, std::size_t leaves,
                          double horizon_s, std::size_t count_per_event = 1);

}  // namespace mdtask::fault
