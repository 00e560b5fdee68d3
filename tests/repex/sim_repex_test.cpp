// The DES twin of the RepEx runner: virtual-time replays must be
// deterministic per seed, cost-model-sensible across engines, and —
// the subsystem's headline contract — produce canonical RecoveryLogs
// byte-identical to the live runs' for the same seed.
#include "mdtask/repex/sim_repex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "mdtask/workflows/repex_runner.h"

namespace mdtask::repex {
namespace {

using workflows::EngineKind;

std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

RepexConfig tiny_config() {
  RepexConfig config;
  config.params.replicas = 5;
  config.params.max_rounds = 4;
  config.params.min_rounds = 1;
  config.params.acceptance_window = 0;
  config.params.atoms = 5;
  config.params.frames = 4;
  config.params.window_frames = 2;
  config.params.seed = 42;
  config.workers = 3;
  return config;
}

class SimRepexEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(SimRepexEngineTest, LiveAndDesLogsAreByteIdentical) {
  const RepexConfig base = tiny_config();
  RepexConfig live_config = base;
  fault::RecoveryLog live_log, des_log;
  live_config.recovery_log = &live_log;
  const auto live = run_repex(GetParam(), live_config);
  const auto des = simulate_repex_wave(base, GetParam(), &des_log);
  EXPECT_EQ(live_log.canonical(), des_log.canonical())
      << engine_id(GetParam());
  EXPECT_EQ(live.rounds, des.rounds);
  EXPECT_EQ(live.attempted, des.attempted);
  EXPECT_EQ(live.accepted, des.accepted);
  EXPECT_EQ(live.final_configs, des.final_configs);
  EXPECT_EQ(live.acceptance_trajectory, des.acceptance_trajectory);
  EXPECT_EQ(live.final_energies, des.final_energies);
}

TEST_P(SimRepexEngineTest, SameSeedIsEventForEventIdentical) {
  const RepexConfig config = tiny_config();
  fault::RecoveryLog log_a, log_b;
  const auto a = simulate_repex_wave(config, GetParam(), &log_a);
  const auto b = simulate_repex_wave(config, GetParam(), &log_b);
  EXPECT_EQ(log_a.canonical(), log_b.canonical());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.barrier_wait_s, b.barrier_wait_s);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST_P(SimRepexEngineTest, DifferentSeedsDiverge) {
  RepexConfig a = tiny_config();
  RepexConfig b = tiny_config();
  b.params.seed = 1234;
  fault::RecoveryLog log_a, log_b;
  simulate_repex_wave(a, GetParam(), &log_a);
  simulate_repex_wave(b, GetParam(), &log_b);
  EXPECT_NE(log_a.canonical(), log_b.canonical());
}

TEST_P(SimRepexEngineTest, EvaluatesEachBaseOnce) {
  RepexConfig config = tiny_config();
  std::atomic<std::uint64_t> evaluations{0};
  config.params.base_evaluations = &evaluations;
  const auto outcome = simulate_repex_wave(config, GetParam());
  EXPECT_EQ(outcome.rounds, config.params.max_rounds);
  EXPECT_EQ(evaluations.load(), config.params.replicas)
      << engine_id(GetParam());
}

TEST_P(SimRepexEngineTest, MakespanAndBarriersArePositive) {
  const auto outcome = simulate_repex_wave(tiny_config(), GetParam());
  EXPECT_GT(outcome.makespan_s, 0.0);
  EXPECT_GT(outcome.barrier_wait_s, 0.0);
  EXPECT_GT(outcome.events_processed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, SimRepexEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(SimRepexCostTest, DbLatencyDominatesRpMakespan) {
  RepexConfig fast = tiny_config();
  RepexConfig slow = tiny_config();
  slow.db_roundtrip_latency_s = 0.05;
  const auto a = simulate_repex_wave(fast, EngineKind::kRp);
  const auto b = simulate_repex_wave(slow, EngineKind::kRp);
  EXPECT_GT(b.makespan_s, a.makespan_s);
}

TEST(SimRepexCostTest, SparkCacheOffRecomputesBasesEveryRound) {
  RepexConfig cached = tiny_config();
  RepexConfig uncached = tiny_config();
  uncached.cache_static = false;
  const auto a = simulate_repex_wave(cached, EngineKind::kSpark);
  const auto b = simulate_repex_wave(uncached, EngineKind::kSpark);
  EXPECT_GT(b.makespan_s, a.makespan_s);
}

TEST(SimRepexCostTest, MpiBarriersAreCheapestSparkShufflesCostlier) {
  const RepexConfig config = tiny_config();
  const auto mpi = simulate_repex_wave(config, EngineKind::kMpi);
  const auto spark = simulate_repex_wave(config, EngineKind::kSpark);
  EXPECT_LT(mpi.makespan_s, spark.makespan_s);
}

TEST(SimRepexFacadeTest, RunnerSimulateMatchesFreeFunction) {
  const Runner runner(tiny_config());
  fault::RecoveryLog log_a, log_b;
  const auto a = runner.simulate(EngineKind::kDask, &log_a);
  const auto b =
      simulate_repex_wave(runner.config(), EngineKind::kDask, &log_b);
  EXPECT_EQ(log_a.canonical(), log_b.canonical());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

}  // namespace
}  // namespace mdtask::repex
