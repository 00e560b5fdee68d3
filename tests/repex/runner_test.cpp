// The live four-engine RepEx runner against the pure-model reference:
// every engine must reproduce the reference decision stream exactly
// (byte-identical canonical RecoveryLogs — the subsystem's core
// acceptance criterion), honour convergence semantics, survive fault /
// elastic / autoscale composition, and surface its exchange counters
// through the trace summary.
#include "mdtask/repex/runner.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "mdtask/trace/summary.h"
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
  config.params.acceptance_window = 0;  // fixed round count by default
  config.params.atoms = 5;
  config.params.frames = 4;
  config.params.window_frames = 2;
  config.params.seed = 42;
  config.workers = 3;
  return config;
}

/// The exchange lines of a canonical log (the engine-free decision
/// stream; other record kinds — task faults, membership — are engine
/// bookkeeping and excluded from the cross-engine contract).
std::vector<std::string> exchange_lines(const fault::RecoveryLog& log) {
  std::vector<std::string> lines;
  for (const auto& line : log.canonical()) {
    if (line.rfind("repex ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

/// Pure-model replay: the reference every engine must reproduce.
std::vector<std::string> reference_lines(const RepexParams& p) {
  fault::RecoveryLog log;
  std::vector<std::size_t> configs(p.replicas);
  std::iota(configs.begin(), configs.end(), std::size_t{0});
  std::vector<double> acceptance;
  for (std::size_t round = 0; round < p.max_rounds; ++round) {
    std::vector<double> energies(p.replicas);
    for (std::size_t s = 0; s < p.replicas; ++s) {
      energies[s] = replica_energy(p, configs[s], round);
    }
    const auto decisions = decide_exchanges(p, round, configs, energies);
    std::uint64_t accepted = 0;
    for (const auto& d : decisions) {
      log.record_exchange({round, d.slot_lo, d.slot_hi, d.config_lo,
                           d.config_hi, d.accepted, 0.0});
      if (d.accepted) ++accepted;
    }
    acceptance.push_back(decisions.empty()
                             ? 0.0
                             : static_cast<double>(accepted) /
                                   static_cast<double>(decisions.size()));
    apply_exchanges(configs, decisions);
    if (acceptance_converged(p, acceptance)) break;
  }
  return exchange_lines(log);
}

class RepexEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RepexEngineTest, MatchesPureModelReference) {
  RepexConfig config = tiny_config();
  fault::RecoveryLog log;
  config.recovery_log = &log;
  const auto result = run_repex(GetParam(), config);
  EXPECT_EQ(result.rounds, config.params.max_rounds);
  EXPECT_GT(result.attempted, 0u);
  EXPECT_EQ(exchange_lines(log), reference_lines(config.params))
      << engine_id(GetParam());
}

TEST_P(RepexEngineTest, AllPairsTopologyMatchesReference) {
  RepexConfig config = tiny_config();
  config.params.topology = ExchangeTopology::kAllPairs;
  config.params.max_rounds = 3;
  fault::RecoveryLog log;
  config.recovery_log = &log;
  run_repex(GetParam(), config);
  EXPECT_EQ(exchange_lines(log), reference_lines(config.params))
      << engine_id(GetParam());
}

TEST_P(RepexEngineTest, WorkerCountDoesNotChangeDecisions) {
  RepexConfig one = tiny_config();
  one.workers = 1;
  RepexConfig many = tiny_config();
  many.workers = 8;
  fault::RecoveryLog log_one, log_many;
  one.recovery_log = &log_one;
  many.recovery_log = &log_many;
  const auto a = run_repex(GetParam(), one);
  const auto b = run_repex(GetParam(), many);
  EXPECT_EQ(exchange_lines(log_one), exchange_lines(log_many));
  EXPECT_EQ(a.final_configs, b.final_configs);
  EXPECT_EQ(a.acceptance_trajectory, b.acceptance_trajectory);
}

TEST_P(RepexEngineTest, ConvergenceStopsBeforeRoundBudget) {
  RepexConfig config = tiny_config();
  // A generous tolerance converges as soon as two windows exist.
  config.params.acceptance_window = 1;
  config.params.acceptance_tolerance = 1.0;
  config.params.min_rounds = 2;
  config.params.max_rounds = 8;
  const auto result = run_repex(GetParam(), config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.acceptance_trajectory.size(), result.rounds);
}

TEST_P(RepexEngineTest, TraceCountersSurfaceInSummary) {
  RepexConfig config = tiny_config();
  config.params.max_rounds = 2;
  trace::Tracer tracer;
  tracer.set_enabled(true);
  fault::RecoveryLog log;
  config.tracer = &tracer;
  config.recovery_log = &log;
  run_repex(GetParam(), config);
  const auto summary = trace::summarize(tracer);
  bool acceptance = false, barrier = false, round_span = false;
  for (const auto& c : summary.counters) {
    if (c.name == "repex:acceptance") acceptance = true;
    if (c.name == "repex:barrier_wait_us") barrier = true;
  }
  for (const auto& s : summary.spans) {
    if (s.name == "repex:round") round_span = true;
  }
  EXPECT_TRUE(acceptance) << engine_id(GetParam());
  EXPECT_TRUE(barrier) << engine_id(GetParam());
  EXPECT_TRUE(round_span) << engine_id(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Engines, RepexEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(RepexCrossEngineTest, CanonicalLogsAreByteIdenticalAcrossEngines) {
  const RepexConfig config = tiny_config();
  std::vector<std::vector<std::string>> streams;
  for (const EngineKind engine :
       {EngineKind::kMpi, EngineKind::kSpark, EngineKind::kDask,
        EngineKind::kRp}) {
    RepexConfig c = config;
    fault::RecoveryLog log;
    c.recovery_log = &log;
    run_repex(engine, c);
    streams.push_back(exchange_lines(log));
  }
  EXPECT_FALSE(streams[0].empty());
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[0], streams[i]);
  }
}

TEST(RepexSparkCacheTest, CacheTogglePreservesDecisions) {
  RepexConfig cached = tiny_config();
  RepexConfig uncached = tiny_config();
  uncached.cache_static = false;
  std::atomic<std::uint64_t> cached_evals{0}, uncached_evals{0};
  cached.params.base_evaluations = &cached_evals;
  uncached.params.base_evaluations = &uncached_evals;
  fault::RecoveryLog log_cached, log_uncached;
  cached.recovery_log = &log_cached;
  uncached.recovery_log = &log_uncached;
  const auto a = run_repex(EngineKind::kSpark, cached);
  const auto b = run_repex(EngineKind::kSpark, uncached);
  EXPECT_EQ(exchange_lines(log_cached), exchange_lines(log_uncached));
  EXPECT_EQ(a.final_configs, b.final_configs);
  // Cached: one base evaluation per replica, ever. Uncached: the
  // lineage recomputes the bases every round.
  EXPECT_EQ(cached_evals.load(), cached.params.replicas);
  EXPECT_EQ(uncached_evals.load(),
            uncached.params.replicas * b.rounds);
}

TEST(RepexFaultTest, MpiRestartPreservesDecisionStream) {
  RepexConfig config = tiny_config();
  fault::FaultPlan plan;
  plan.schedule.push_back(
      {fault::FaultKind::kNodeCrash, 0, 0, 1.0, 0.0});
  plan.retry.max_attempts = 3;
  fault::RecoveryLog log;
  config.fault_plan = &plan;
  config.recovery_log = &log;
  const auto result = run_repex(EngineKind::kMpi, config);
  EXPECT_EQ(result.rounds, config.params.max_rounds);
  // The restarted job replays the identical decision stream, once.
  EXPECT_EQ(exchange_lines(log), reference_lines(config.params));
  // The abort/restart itself was recorded (non-exchange lines exist).
  EXPECT_GT(log.canonical().size(), exchange_lines(log).size());
}

/// Every task of the run (each engine's energy tasks included) fails its
/// first attempt; the engine's own recovery must still produce the
/// serial reference stream, with the faults on record.
void expect_faults_preserve_decision_stream(EngineKind engine) {
  RepexConfig config = tiny_config();
  fault::FaultPlan plan;
  plan.schedule.push_back(
      {fault::FaultKind::kWorkerOomKill, fault::FaultSpec::kEveryTask, 0});
  fault::RecoveryLog log;
  config.fault_plan = &plan;
  config.recovery_log = &log;
  const auto result = run_repex(engine, config);
  EXPECT_EQ(result.rounds, config.params.max_rounds) << engine_id(engine);
  EXPECT_EQ(exchange_lines(log), reference_lines(config.params))
      << engine_id(engine);
  EXPECT_GT(log.canonical().size(), exchange_lines(log).size())
      << engine_id(engine);
}

TEST(RepexFaultTest, SparkFaultsPreserveDecisionStream) {
  expect_faults_preserve_decision_stream(EngineKind::kSpark);
}

TEST(RepexFaultTest, DaskFaultsPreserveDecisionStream) {
  expect_faults_preserve_decision_stream(EngineKind::kDask);
}

TEST(RepexFaultTest, RpFaultsPreserveDecisionStream) {
  expect_faults_preserve_decision_stream(EngineKind::kRp);
}

TEST(RepexSparkBroadcastTest, ShipsOneReferencePerRoundPerExecutor) {
  const RepexConfig config = tiny_config();
  const auto result = run_repex(EngineKind::kSpark, config);
  EXPECT_EQ(result.metrics.broadcast_bytes,
            result.rounds * round_reference(config.params, 0).byte_size() *
                config.workers);
}

TEST(RepexRunnerFacadeTest, RunnerWrapsConfigVerbatim) {
  RepexConfig config = tiny_config();
  fault::RecoveryLog direct_log, runner_log;
  config.recovery_log = &direct_log;
  const auto direct = run_repex(EngineKind::kDask, config);
  config.recovery_log = &runner_log;
  const Runner runner(config);
  const auto via = runner.run(EngineKind::kDask);
  EXPECT_EQ(direct.final_configs, via.final_configs);
  EXPECT_EQ(exchange_lines(direct_log), exchange_lines(runner_log));
  EXPECT_EQ(runner.config().params.replicas, config.params.replicas);
}

}  // namespace
}  // namespace mdtask::repex
