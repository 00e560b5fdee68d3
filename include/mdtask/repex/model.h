// Replica-exchange (RepEx) analysis model: the pure, engine-free core.
//
// RepEx (PAPERS.md: "RepEx: A Flexible Framework for Scalable Replica
// Exchange MD Simulations") is the canonical iterative, synchronization-
// heavy workload of the paper's Table 3: N replicas advance a per-replica
// trajectory segment each round, compute an observable, and attempt to
// exchange ladder slots with neighbours under Metropolis acceptance.
// Everything an engine needs to agree on lives here as pure functions:
//
//  * the temperature ladder (ladder_beta),
//  * the per-replica observable, split into an expensive static base
//    (the Spark-cacheable replica state) and a cheap per-round advance
//    against the round's reference window, shared by all replicas,
//  * the candidate-pair topology (nearest-neighbour parity alternation
//    or all-pairs),
//  * the seeded Metropolis acceptance draw (splitmix64 chain, no RNG
//    state), and
//  * the windowed acceptance-rate convergence test.
//
// Determinism contract: every function here is a pure function of
// (params, config id, round, slots) — no mutable RNG streams, no
// wall-clock input — so the exchange-decision stream, and therefore the
// canonical RecoveryLog, is byte-identical across all four engines and
// the simulate_repex_wave DES twin for the same seed (docs/REPEX.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "mdtask/kernels/frame_pack.h"
#include "mdtask/kernels/policy.h"

namespace mdtask::repex {

/// Which ladder slots attempt to exchange each round.
enum class ExchangeTopology {
  /// Adjacent pairs (i, i+1) with the starting parity alternating with
  /// the round index — the standard synchronous RepEx scheme.
  kNearestNeighbour,
  /// Every (lo, hi) pair is a candidate, applied greedily in canonical
  /// order; the engines realise it with allreduce-style full-table
  /// exchanges.
  kAllPairs,
};

/// The science-side parameters of one RepEx run. Shared verbatim by the
/// four live engines and the DES twin; everything seeded derives from
/// `seed` through pure hashes.
struct RepexParams {
  std::size_t replicas = 8;
  /// Round budget: the run stops at max_rounds even when the acceptance
  /// window never settles; min_rounds forbids earlier convergence exits.
  std::size_t max_rounds = 8;
  std::size_t min_rounds = 2;
  /// Convergence: with >= 2 full windows of per-round acceptance rates
  /// (and >= min_rounds rounds), stop when the two most recent window
  /// means differ by <= acceptance_tolerance. Window 0 disables the
  /// early exit (the run always uses the full max_rounds budget).
  std::size_t acceptance_window = 2;
  double acceptance_tolerance = 0.05;
  /// Inverse-temperature ladder endpoints: slot i gets a beta linearly
  /// interpolated between beta_lo (slot 0) and beta_hi (last slot).
  double beta_lo = 1.0;
  double beta_hi = 3.0;
  /// Per-replica segment shape (traj::make_protein_trajectory) — the
  /// expensive static base; window_frames is the cheap per-round
  /// advance segment.
  std::size_t atoms = 24;
  std::size_t frames = 12;
  std::size_t window_frames = 4;
  std::uint64_t seed = 42;
  ExchangeTopology topology = ExchangeTopology::kNearestNeighbour;
  /// kScalar keeps the observable (and so the decision stream)
  /// bit-stable across machines; the policy must match between runs
  /// being compared.
  kernels::KernelPolicy kernel_policy = kernels::KernelPolicy::kScalar;
  /// Optional instrumentation: incremented once per base_observable
  /// evaluation. How the engines share the static replica state is the
  /// cache-hit axis of bench_repex (Spark cache() on/off, Dask persist,
  /// RP filesystem staging, MPI rank-local state).
  std::atomic<std::uint64_t>* base_evaluations = nullptr;

  /// Inverse temperature of ladder slot `slot`.
  double beta(std::size_t slot) const noexcept;
};

/// Expensive static part of the replica observable: the full Hausdorff
/// distance between configuration `config`'s base segment and the
/// shared reference trajectory. This is the replica state worth caching
/// across rounds (Spark cache(), Dask persistent futures, RP staged
/// files, MPI rank-local arrays).
double base_observable(const RepexParams& params, std::size_t config);

/// The round's reference window, packed for the kernels. It depends
/// only on (params, round), so one pack serves every replica of the
/// round; the engines build it once per round and share it read-only
/// (Spark broadcast, Dask/RP task closures, MPI per rank).
kernels::FramePack round_reference(const RepexParams& params,
                                   std::size_t round);

/// Cheap per-round advance: a small-window Hausdorff between the
/// round-perturbed segment of `config` and the round's reference
/// window. The four-argument form takes the window prebuilt by
/// round_reference(params, round); the three-argument form builds it
/// itself, and both return the same bits.
double round_delta(const RepexParams& params, std::size_t config,
                   std::size_t round, const kernels::FramePack& reference);
double round_delta(const RepexParams& params, std::size_t config,
                   std::size_t round);

/// The full observable: base_observable + round_delta. The engines and
/// the DES twin compute the two parts separately (to reuse the cached
/// base and the round's shared reference); tests use this composition.
double replica_energy(const RepexParams& params, std::size_t config,
                      std::size_t round);

/// Uniform [0, 1) draw for the exchange decision of (round, pair): a
/// pure splitmix64 chain over (seed, "repex:exchange", round, slots).
double exchange_uniform(std::uint64_t seed, std::size_t round,
                        std::size_t slot_lo, std::size_t slot_hi) noexcept;

/// Seeded Metropolis acceptance: delta >= 0 always accepts, otherwise
/// accept when exchange_uniform < exp(delta).
bool exchange_accept(std::uint64_t seed, std::size_t round,
                     std::size_t slot_lo, std::size_t slot_hi,
                     double delta) noexcept;

/// One candidate exchange pair of ladder slots (lo < hi).
struct SlotPair {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// The round's candidate pairs in canonical order: nearest-neighbour
/// emits disjoint (i, i+1) pairs starting at parity round % 2;
/// all-pairs enumerates every (lo, hi) lexicographically.
std::vector<SlotPair> candidate_pairs(ExchangeTopology topology,
                                      std::size_t replicas,
                                      std::size_t round);

/// One attempted exchange: the pair, the configurations sitting at the
/// two slots before the swap, the Metropolis exponent and the verdict.
struct ExchangeDecision {
  std::size_t slot_lo = 0;
  std::size_t slot_hi = 0;
  std::size_t config_lo = 0;
  std::size_t config_hi = 0;
  double delta = 0.0;
  bool accepted = false;
};

/// Decides one candidate pair from the two slot energies: the
/// Metropolis exponent is (beta(hi) - beta(lo)) * (E(lo) - E(hi)).
/// Configuration fields are left zero — callers fill them from the
/// current permutation. Every engine routes its native exchange data
/// through this one function so the arithmetic is bit-identical.
ExchangeDecision decide_pair(const RepexParams& params, std::size_t round,
                             std::size_t slot_lo, std::size_t slot_hi,
                             double energy_lo, double energy_hi) noexcept;

/// Canonical greedy filter over raw per-pair decisions sorted by
/// (slot_lo, slot_hi): a pair touching a slot an earlier ACCEPTED pair
/// already swapped is dropped (not attempted). Nearest-neighbour pairs
/// are disjoint, so this is the identity there; all-pairs rounds need
/// it to keep the applied swaps well-defined.
std::vector<ExchangeDecision> greedy_filter(
    std::vector<ExchangeDecision> raw);

/// The round's full decision stream: candidate pairs -> decide_pair ->
/// greedy filter, with configuration ids filled from `configs`
/// (slot -> configuration). `energies` is indexed by slot. This is THE
/// reference the engines' native exchange implementations must (and,
/// being built from the same pure pieces, do) reproduce.
std::vector<ExchangeDecision> decide_exchanges(
    const RepexParams& params, std::size_t round,
    const std::vector<std::size_t>& configs,
    const std::vector<double>& energies);

/// Applies the accepted swaps to the slot -> configuration permutation.
void apply_exchanges(std::vector<std::size_t>& configs,
                     const std::vector<ExchangeDecision>& decisions);

/// Windowed acceptance-rate convergence over the per-round acceptance
/// trajectory (see RepexParams::acceptance_window).
bool acceptance_converged(const RepexParams& params,
                          const std::vector<double>& acceptance_trajectory);

}  // namespace mdtask::repex
