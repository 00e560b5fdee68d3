#include "mdtask/repex/model.h"

#include <algorithm>
#include <cmath>

#include "mdtask/analysis/hausdorff.h"
#include "mdtask/common/hash.h"
#include "mdtask/kernels/batch.h"
#include "mdtask/traj/generators.h"

namespace mdtask::repex {
namespace {

/// Scope label mixed into every repex seed derivation, so the exchange
/// stream is independent of the fault/membership/traffic streams built
/// on the same splitmix64 arithmetic.
std::uint64_t scoped(std::uint64_t seed, const char* label) {
  return hash_combine(seed, fnv1a64(label));
}

traj::Trajectory segment(std::size_t atoms, std::size_t frames,
                         std::uint64_t seed) {
  traj::ProteinTrajectoryParams params;
  params.atoms = atoms;
  params.frames = frames;
  params.seed = seed;
  return traj::make_protein_trajectory(params);
}

/// Frames of the per-round advance and reference windows.
std::size_t window_frames(const RepexParams& params) {
  return std::max<std::size_t>(2, params.window_frames);
}

}  // namespace

double RepexParams::beta(std::size_t slot) const noexcept {
  if (replicas <= 1) return beta_lo;
  const double t = static_cast<double>(slot) /
                   static_cast<double>(replicas - 1);
  return beta_lo + t * (beta_hi - beta_lo);
}

double base_observable(const RepexParams& params, std::size_t config) {
  if (params.base_evaluations != nullptr) {
    params.base_evaluations->fetch_add(1, std::memory_order_relaxed);
  }
  const auto ref =
      segment(params.atoms, params.frames, scoped(params.seed, "repex:ref"));
  const auto base =
      segment(params.atoms, params.frames,
              hash_combine(scoped(params.seed, "repex:base"), config));
  return analysis::hausdorff_naive(base, ref, params.kernel_policy);
}

kernels::FramePack round_reference(const RepexParams& params,
                                   std::size_t round) {
  return kernels::pack_trajectory(
      segment(params.atoms, window_frames(params),
              hash_combine(scoped(params.seed, "repex:refwin"), round)));
}

double round_delta(const RepexParams& params, std::size_t config,
                   std::size_t round, const kernels::FramePack& reference) {
  const auto advance = segment(
      params.atoms, window_frames(params),
      hash_combine(hash_combine(scoped(params.seed, "repex:round"), config),
                   round));
  return kernels::hausdorff_packed(kernels::pack_trajectory(advance),
                                   reference, /*early_break=*/false,
                                   params.kernel_policy);
}

double round_delta(const RepexParams& params, std::size_t config,
                   std::size_t round) {
  return round_delta(params, config, round, round_reference(params, round));
}

double replica_energy(const RepexParams& params, std::size_t config,
                      std::size_t round) {
  return base_observable(params, config) +
         round_delta(params, config, round);
}

double exchange_uniform(std::uint64_t seed, std::size_t round,
                        std::size_t slot_lo, std::size_t slot_hi) noexcept {
  std::uint64_t state = hash_combine(seed, fnv1a64("repex:exchange"));
  state = hash_combine(state, round);
  state = hash_combine(state, slot_lo);
  state = hash_combine(state, slot_hi);
  // 53 mantissa bits -> uniform [0, 1), the xoshiro-seeding idiom.
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

bool exchange_accept(std::uint64_t seed, std::size_t round,
                     std::size_t slot_lo, std::size_t slot_hi,
                     double delta) noexcept {
  if (delta >= 0.0) return true;
  return exchange_uniform(seed, round, slot_lo, slot_hi) < std::exp(delta);
}

std::vector<SlotPair> candidate_pairs(ExchangeTopology topology,
                                      std::size_t replicas,
                                      std::size_t round) {
  std::vector<SlotPair> pairs;
  if (replicas < 2) return pairs;
  if (topology == ExchangeTopology::kNearestNeighbour) {
    for (std::size_t lo = round % 2; lo + 1 < replicas; lo += 2) {
      pairs.push_back({lo, lo + 1});
    }
    return pairs;
  }
  for (std::size_t lo = 0; lo < replicas; ++lo) {
    for (std::size_t hi = lo + 1; hi < replicas; ++hi) {
      pairs.push_back({lo, hi});
    }
  }
  return pairs;
}

ExchangeDecision decide_pair(const RepexParams& params, std::size_t round,
                             std::size_t slot_lo, std::size_t slot_hi,
                             double energy_lo, double energy_hi) noexcept {
  ExchangeDecision decision;
  decision.slot_lo = slot_lo;
  decision.slot_hi = slot_hi;
  decision.delta = (params.beta(slot_hi) - params.beta(slot_lo)) *
                   (energy_lo - energy_hi);
  decision.accepted = exchange_accept(params.seed, round, slot_lo, slot_hi,
                                      decision.delta);
  return decision;
}

std::vector<ExchangeDecision> greedy_filter(
    std::vector<ExchangeDecision> raw) {
  std::sort(raw.begin(), raw.end(),
            [](const ExchangeDecision& a, const ExchangeDecision& b) {
              if (a.slot_lo != b.slot_lo) return a.slot_lo < b.slot_lo;
              return a.slot_hi < b.slot_hi;
            });
  std::vector<ExchangeDecision> kept;
  kept.reserve(raw.size());
  std::vector<bool> swapped;
  for (const auto& decision : raw) {
    const std::size_t needed =
        std::max(decision.slot_lo, decision.slot_hi) + 1;
    if (swapped.size() < needed) swapped.resize(needed, false);
    if (swapped[decision.slot_lo] || swapped[decision.slot_hi]) continue;
    kept.push_back(decision);
    if (decision.accepted) {
      swapped[decision.slot_lo] = true;
      swapped[decision.slot_hi] = true;
    }
  }
  return kept;
}

std::vector<ExchangeDecision> decide_exchanges(
    const RepexParams& params, std::size_t round,
    const std::vector<std::size_t>& configs,
    const std::vector<double>& energies) {
  std::vector<ExchangeDecision> raw;
  for (const auto& pair :
       candidate_pairs(params.topology, params.replicas, round)) {
    auto decision = decide_pair(params, round, pair.lo, pair.hi,
                                energies[pair.lo], energies[pair.hi]);
    decision.config_lo = configs[pair.lo];
    decision.config_hi = configs[pair.hi];
    raw.push_back(decision);
  }
  return greedy_filter(std::move(raw));
}

void apply_exchanges(std::vector<std::size_t>& configs,
                     const std::vector<ExchangeDecision>& decisions) {
  for (const auto& decision : decisions) {
    if (!decision.accepted) continue;
    std::swap(configs[decision.slot_lo], configs[decision.slot_hi]);
  }
}

bool acceptance_converged(const RepexParams& params,
                          const std::vector<double>& acceptance_trajectory) {
  const std::size_t w = params.acceptance_window;
  if (w == 0) return false;
  const std::size_t rounds = acceptance_trajectory.size();
  if (rounds < params.min_rounds || rounds < 2 * w) return false;
  double recent = 0.0;
  double previous = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    recent += acceptance_trajectory[rounds - 1 - i];
    previous += acceptance_trajectory[rounds - 1 - w - i];
  }
  recent /= static_cast<double>(w);
  previous /= static_cast<double>(w);
  return std::abs(recent - previous) <= params.acceptance_tolerance;
}

}  // namespace mdtask::repex
