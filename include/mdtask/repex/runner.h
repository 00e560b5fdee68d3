// The replica-exchange workflow runner: one config, four engines.
//
// Each engine realises the same synchronous RepEx rounds — advance every
// replica, exchange ladder slots, repeat until the acceptance window
// settles or the round budget runs out — with its native iteration
// idiom, which is exactly the Table 3 axis this workload opens:
//
//  * Spark — the static replica state is an RDD cached across rounds
//    (cache_static toggles it for bench_repex's cache-hit axis); the
//    round's reference window is a broadcast variable; the exchange is
//    a barrier-stage shuffle (reduce_by_key over pair keys) deciding
//    each pair in the reduce stage.
//  * Dask  — persistent base futures plus a per-round re-submitted
//    dynamic graph: energy tasks depend on their base future and share
//    the round's reference window through their closures, decision
//    tasks depend on the two member energies.
//  * MPI   — one SPMD job holding rank-local replica state across
//    rounds; each rank builds the round's reference window itself;
//    nearest-neighbour rounds exchange boundary energies with
//    sendrecv and allgather the decisions, all-pairs rounds allreduce
//    the masked per-slot energy table. Under a fault plan the job runs
//    in the checkpoint/abort/restart wrapper with per-round state
//    checkpoints.
//  * RP    — one compute unit per replica per round dispatched through
//    the DB, the round's reference window shared by the units'
//    closures; the static base observable is staged through the shared
//    filesystem on round 0 and staged back instead of recomputed on
//    later rounds.
//
// All four feed their native exchange data through the same pure
// decision functions (repex/model.h), so same-seed runs produce
// byte-identical canonical RecoveryLogs across engines and against the
// simulate_repex_wave DES twin (docs/REPEX.md). The engines themselves
// are built through the workflows harness (workflows/common.h), like
// every other runner's.
#pragma once

#include <cstdint>
#include <vector>

#include "mdtask/repex/model.h"
#include "mdtask/workflows/common.h"

namespace mdtask::repex {

/// One RepEx run: the science parameters plus RepEx's engine knobs, on
/// top of the infrastructure every workflow runner carries
/// (workflows::EngineOptions: workers, tracing, faults, recovery log).
struct RepexConfig : workflows::EngineOptions {
  RepexParams params;
  /// Spark only: cache() the static replica-state RDD across rounds.
  /// Off, every round's action recomputes the expensive base
  /// observables through the lineage — the measured cost of losing
  /// Spark's caching advantage (bench_repex).
  bool cache_static = true;
  /// RP only: modelled MongoDB roundtrip latency charged per unit-state
  /// transition (the paper's DB-mediated dispatch cost).
  double db_roundtrip_latency_s = 0.0;
};

/// What one run produced. The decision-stream fields (rounds, counts,
/// acceptance trajectory, final permutation) are deterministic per seed
/// and identical across engines; metrics and barrier_wait_s are
/// engine-native measurements.
struct RepexResult {
  std::size_t rounds = 0;
  bool converged = false;  ///< acceptance window settled before max_rounds
  std::uint64_t attempted = 0;
  std::uint64_t accepted = 0;
  /// Per-round accepted/attempted ratio (the convergence signal and the
  /// bench's acceptance-trajectory column).
  std::vector<double> acceptance_trajectory;
  /// slot -> configuration id after the final round.
  std::vector<std::size_t> final_configs;
  /// Per-slot observable of the final executed round (pre-exchange).
  std::vector<double> final_energies;
  /// Driver-side wall seconds spent waiting on round barriers (the
  /// exchange synchronization cost, accumulated across rounds).
  double barrier_wait_s = 0.0;
  workflows::RunMetrics metrics;
};

/// Runs the replica-exchange workflow on `engine`. Emits "repex:*"
/// spans and per-round "repex:acceptance" / "repex:barrier_wait_us"
/// counters when a tracer is attached, and one ExchangeRecord per
/// attempted pair into the recovery log.
RepexResult run_repex(workflows::EngineKind engine,
                      const RepexConfig& config);

}  // namespace mdtask::repex
