#include "mdtask/repex/sim_repex.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "mdtask/common/hash.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::repex {
namespace {

using workflows::EngineKind;

/// Virtual-time cost knobs of one engine's RepEx realisation: what it
/// charges to dispatch a replica task and to run the end-of-round
/// exchange. Values follow the calibrated framework-overhead ordering
/// used across the sim layer (RP's DB dispatch >> Spark scheduling >
/// Dask scheduling >> MPI).
struct EngineCosts {
  double dispatch_s = 0.0;       ///< per replica task, per round
  double exchange_fixed_s = 0.0; ///< per round, topology-independent
  double exchange_pair_s = 0.0;  ///< per candidate pair
};

EngineCosts costs_for(EngineKind engine, const RepexConfig& config) {
  switch (engine) {
    case EngineKind::kSpark:
      // Task launch plus the barrier-stage shuffle of pair halves.
      return {5e-4, 2e-3, 2e-4};
    case EngineKind::kDask:
      // Lighter scheduler; the exchange is a re-submitted decision
      // graph, one task per pair.
      return {2e-4, 5e-4, 2e-4};
    case EngineKind::kMpi:
      // Rank-local state; the exchange is a sendrecv/allreduce round.
      return {1e-5, 5e-5, 2e-5};
    case EngineKind::kRp: {
      // Every unit-state transition crosses the DB; the exchange is the
      // driver's wait_units() plus its own roundtrip.
      const double rt = config.db_roundtrip_latency_s > 0.0
                            ? config.db_roundtrip_latency_s
                            : 1e-3;
      return {3.0 * rt, rt, 0.0};
    }
  }
  return {};
}

/// Deterministic virtual duration of one replica advance: a pure hash
/// draw over (seed, config, round), so same-seed replays are
/// event-for-event identical.
double advance_cost_s(const RepexParams& p, std::size_t config,
                      std::size_t round) {
  std::uint64_t state = hash_combine(p.seed, fnv1a64("repex:sim:advance"));
  state = hash_combine(state, config);
  state = hash_combine(state, round);
  const double u =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return 2e-3 * (0.5 + u);
}

/// Virtual cost of (re)computing the static base observable — the part
/// the engines cache / persist / stage after round 0.
double base_cost_s(const RepexParams& p, std::size_t config) {
  std::uint64_t state = hash_combine(p.seed, fnv1a64("repex:sim:base"));
  state = hash_combine(state, config);
  const double u =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  // The base segment is frames/window_frames times the advance window.
  const double scale = static_cast<double>(p.frames) /
                       static_cast<double>(
                           std::max<std::size_t>(2, p.window_frames));
  return 2e-3 * (0.5 + u) * scale;
}

}  // namespace

SimRepexOutcome simulate_repex_wave(const RepexConfig& config,
                                    EngineKind engine,
                                    fault::RecoveryLog* log) {
  const RepexParams p = config.params;
  const EngineCosts costs = costs_for(engine, config);
  sim::Simulation simulation;
  sim::Resource pool(simulation,
                     std::max<std::size_t>(1, config.workers));

  SimRepexOutcome outcome;
  std::vector<std::size_t> configs(p.replicas);
  std::iota(configs.begin(), configs.end(), std::size_t{0});
  std::vector<std::optional<double>> base(p.replicas);

  for (std::size_t round = 0; round < p.max_rounds; ++round) {
    // Advance wave: every replica holds a core for dispatch + compute;
    // round 0 (or every round, with Spark's cache off) also pays the
    // static base observable.
    double first_end = 0.0;
    double last_end = 0.0;
    bool any = false;
    for (std::size_t slot = 0; slot < p.replicas; ++slot) {
      const std::size_t c = configs[slot];
      double task_s = costs.dispatch_s + advance_cost_s(p, c, round);
      const bool pay_base =
          round == 0 ||
          (engine == EngineKind::kSpark && !config.cache_static);
      if (pay_base) task_s += base_cost_s(p, c);
      pool.acquire(task_s, [&simulation, &first_end, &last_end, &any] {
        const double now = simulation.now();
        if (!any || now < first_end) first_end = now;
        if (now > last_end) last_end = now;
        any = true;
      });
    }
    simulation.run();
    // Fast replicas idle at the barrier from their finish to the wave's
    // last finish — the synchronization cost of the synchronous scheme.
    outcome.barrier_wait_s += any ? last_end - first_end : 0.0;

    // Exchange barrier: engine-shaped cost, then the SAME pure decision
    // stream as the live runner.
    const auto pairs = candidate_pairs(p.topology, p.replicas, round);
    const double exchange_s =
        costs.exchange_fixed_s +
        costs.exchange_pair_s * static_cast<double>(pairs.size());
    simulation.after(exchange_s, [] {});
    simulation.run();
    outcome.barrier_wait_s += exchange_s;

    // The observables the live engines compute: each base once, on
    // first use, and the round's reference window once per round.
    const kernels::FramePack reference = round_reference(p, round);
    std::vector<double> energy_by_slot(p.replicas, 0.0);
    for (std::size_t slot = 0; slot < p.replicas; ++slot) {
      const std::size_t c = configs[slot];
      if (!base[c]) base[c] = base_observable(p, c);
      energy_by_slot[slot] = *base[c] + round_delta(p, c, round, reference);
    }
    const auto decisions =
        decide_exchanges(p, round, configs, energy_by_slot);
    std::uint64_t accepted = 0;
    for (const auto& d : decisions) {
      if (log != nullptr) {
        log->record_exchange({round, d.slot_lo, d.slot_hi, d.config_lo,
                              d.config_hi, d.accepted,
                              simulation.now() * 1e6});
      }
      if (d.accepted) ++accepted;
    }
    outcome.attempted += decisions.size();
    outcome.accepted += accepted;
    outcome.acceptance_trajectory.push_back(
        decisions.empty() ? 0.0
                          : static_cast<double>(accepted) /
                                static_cast<double>(decisions.size()));
    outcome.final_energies = energy_by_slot;
    apply_exchanges(configs, decisions);
    if (acceptance_converged(p, outcome.acceptance_trajectory)) break;
  }

  outcome.rounds = outcome.acceptance_trajectory.size();
  outcome.converged = acceptance_converged(p, outcome.acceptance_trajectory);
  outcome.final_configs = std::move(configs);
  outcome.makespan_s = simulation.now();
  outcome.events_processed = simulation.events_processed();
  return outcome;
}

}  // namespace mdtask::repex
