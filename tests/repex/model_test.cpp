// The pure RepEx core: ladder, topologies, seeded Metropolis decisions,
// greedy pair filtering and windowed acceptance convergence. Everything
// here must be a pure function of (params, ids, round) — these tests
// pin that contract, which is what makes the four engines and the DES
// twin byte-identical.
#include "mdtask/repex/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace mdtask::repex {
namespace {

RepexParams tiny_params() {
  RepexParams p;
  p.replicas = 6;
  p.atoms = 6;
  p.frames = 6;
  p.window_frames = 3;
  p.seed = 42;
  return p;
}

TEST(RepexLadderTest, BetaInterpolatesEndpoints) {
  RepexParams p = tiny_params();
  EXPECT_DOUBLE_EQ(p.beta(0), p.beta_lo);
  EXPECT_DOUBLE_EQ(p.beta(p.replicas - 1), p.beta_hi);
  for (std::size_t s = 1; s < p.replicas; ++s) {
    EXPECT_GT(p.beta(s), p.beta(s - 1));
  }
  RepexParams single = p;
  single.replicas = 1;
  EXPECT_DOUBLE_EQ(single.beta(0), single.beta_lo);
}

TEST(RepexPairsTest, NearestNeighbourAlternatesParity) {
  const auto even = candidate_pairs(ExchangeTopology::kNearestNeighbour,
                                    6, 0);
  const auto odd = candidate_pairs(ExchangeTopology::kNearestNeighbour,
                                   6, 1);
  ASSERT_EQ(even.size(), 3u);
  EXPECT_EQ(even[0].lo, 0u);
  EXPECT_EQ(even[1].lo, 2u);
  EXPECT_EQ(even[2].lo, 4u);
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[0].lo, 1u);
  EXPECT_EQ(odd[1].lo, 3u);
  for (const auto& pair : even) EXPECT_EQ(pair.hi, pair.lo + 1);
}

TEST(RepexPairsTest, AllPairsEnumeratesEveryPairOnce) {
  const auto pairs = candidate_pairs(ExchangeTopology::kAllPairs, 5, 3);
  EXPECT_EQ(pairs.size(), 10u);  // C(5, 2)
  for (const auto& pair : pairs) EXPECT_LT(pair.lo, pair.hi);
}

TEST(RepexPairsTest, DegenerateReplicaCountsYieldNoPairs) {
  EXPECT_TRUE(
      candidate_pairs(ExchangeTopology::kNearestNeighbour, 1, 0).empty());
  EXPECT_TRUE(candidate_pairs(ExchangeTopology::kAllPairs, 0, 0).empty());
}

TEST(RepexAcceptTest, UniformIsDeterministicAndInRange) {
  for (std::size_t round = 0; round < 8; ++round) {
    const double u = exchange_uniform(42, round, 1, 2);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_DOUBLE_EQ(u, exchange_uniform(42, round, 1, 2));
  }
  EXPECT_NE(exchange_uniform(42, 0, 1, 2), exchange_uniform(43, 0, 1, 2));
  EXPECT_NE(exchange_uniform(42, 0, 1, 2), exchange_uniform(42, 1, 1, 2));
}

TEST(RepexAcceptTest, NonNegativeDeltaAlwaysAccepts) {
  EXPECT_TRUE(exchange_accept(42, 0, 0, 1, 0.0));
  EXPECT_TRUE(exchange_accept(42, 0, 0, 1, 5.0));
  // A hugely negative exponent is (practically) always rejected.
  EXPECT_FALSE(exchange_accept(42, 0, 0, 1, -500.0));
}

TEST(RepexEnergyTest, EnergyComposesBasePlusDelta) {
  const RepexParams p = tiny_params();
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(replica_energy(p, c, 2),
                     base_observable(p, c) + round_delta(p, c, 2));
  }
}

TEST(RepexModelTest, SharedReferenceDeltaIsBitIdentical) {
  RepexParams p = tiny_params();
  for (const kernels::KernelPolicy policy :
       {kernels::KernelPolicy::kScalar, kernels::KernelPolicy::kVectorized}) {
    p.kernel_policy = policy;
    for (const std::size_t window : {0u, 1u, 2u, 4u, 7u}) {
      p.window_frames = window;
      for (std::size_t round = 0; round < 10; ++round) {
        const kernels::FramePack reference = round_reference(p, round);
        for (std::size_t c = 0; c < 6; ++c) {
          // Bit-identical, not merely close: the engines share one
          // reference per round and must reproduce the serial stream.
          EXPECT_EQ(round_delta(p, c, round, reference),
                    round_delta(p, c, round))
              << kernels::to_string(policy) << " window=" << window
              << " round=" << round << " config=" << c;
        }
      }
    }
  }
}

TEST(RepexEnergyTest, BaseEvaluationCounterInstrumented) {
  RepexParams p = tiny_params();
  std::atomic<std::uint64_t> evals{0};
  p.base_evaluations = &evals;
  base_observable(p, 0);
  base_observable(p, 1);
  round_delta(p, 0, 0);  // the cheap advance is not counted
  EXPECT_EQ(evals.load(), 2u);
}

TEST(RepexGreedyFilterTest, DropsPairsTouchingAcceptedSlots) {
  std::vector<ExchangeDecision> raw;
  raw.push_back({0, 1, 0, 1, 1.0, true});
  raw.push_back({1, 2, 1, 2, 1.0, true});   // slot 1 already swapped
  raw.push_back({2, 3, 2, 3, -9.0, false});  // slot 2 free again
  raw.push_back({3, 4, 3, 4, 1.0, true});   // rejected pair above frees 3
  const auto kept = greedy_filter(raw);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].slot_lo, 0u);
  EXPECT_EQ(kept[1].slot_lo, 2u);
  EXPECT_EQ(kept[2].slot_lo, 3u);
}

TEST(RepexGreedyFilterTest, CanonicalOrderIndependentOfInputOrder) {
  std::vector<ExchangeDecision> a;
  a.push_back({2, 3, 2, 3, 1.0, true});
  a.push_back({0, 1, 0, 1, 1.0, true});
  std::vector<ExchangeDecision> b(a.rbegin(), a.rend());
  const auto ka = greedy_filter(a);
  const auto kb = greedy_filter(b);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i].slot_lo, kb[i].slot_lo);
    EXPECT_EQ(ka[i].slot_hi, kb[i].slot_hi);
  }
}

TEST(RepexExchangeTest, ApplyKeepsPermutation) {
  const RepexParams p = tiny_params();
  std::vector<std::size_t> configs(p.replicas);
  std::iota(configs.begin(), configs.end(), std::size_t{0});
  for (std::size_t round = 0; round < 4; ++round) {
    std::vector<double> energies(p.replicas);
    for (std::size_t s = 0; s < p.replicas; ++s) {
      energies[s] = replica_energy(p, configs[s], round);
    }
    apply_exchanges(configs, decide_exchanges(p, round, configs, energies));
    auto sorted = configs;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t s = 0; s < p.replicas; ++s) EXPECT_EQ(sorted[s], s);
  }
}

TEST(RepexExchangeTest, DecisionStreamIsDeterministic) {
  const RepexParams p = tiny_params();
  std::vector<std::size_t> configs(p.replicas);
  std::iota(configs.begin(), configs.end(), std::size_t{0});
  std::vector<double> energies(p.replicas);
  for (std::size_t s = 0; s < p.replicas; ++s) {
    energies[s] = replica_energy(p, configs[s], 1);
  }
  const auto a = decide_exchanges(p, 1, configs, energies);
  const auto b = decide_exchanges(p, 1, configs, energies);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].accepted, b[i].accepted);
    EXPECT_DOUBLE_EQ(a[i].delta, b[i].delta);
  }
}

TEST(RepexConvergenceTest, WindowSemantics) {
  RepexParams p = tiny_params();
  p.acceptance_window = 2;
  p.min_rounds = 2;
  p.acceptance_tolerance = 0.05;
  // Too few rounds for two windows.
  EXPECT_FALSE(acceptance_converged(p, {0.5, 0.5, 0.5}));
  // Two settled windows.
  EXPECT_TRUE(acceptance_converged(p, {0.5, 0.52, 0.51, 0.49}));
  // Windows still drifting apart.
  EXPECT_FALSE(acceptance_converged(p, {0.9, 0.9, 0.2, 0.2}));
  // Window 0 disables the early exit.
  RepexParams off = p;
  off.acceptance_window = 0;
  EXPECT_FALSE(acceptance_converged(off, {0.5, 0.5, 0.5, 0.5}));
  // min_rounds floors the exit even with settled windows.
  RepexParams strict = p;
  strict.min_rounds = 6;
  EXPECT_FALSE(acceptance_converged(strict, {0.5, 0.5, 0.5, 0.5}));
}

}  // namespace
}  // namespace mdtask::repex
