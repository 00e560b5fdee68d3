// resolve_plan (the feasibility oracle behind the Fig. 7 failure cells)
// and the fault side of autoscale::simulate_task_wave (the virtual-time
// replay with recovery).
#include <gtest/gtest.h>

#include "mdtask/autoscale/task_wave.h"
#include "mdtask/fault/sim_faults.h"

namespace mdtask::fault {
namespace {

using autoscale::simulate_task_wave;
using autoscale::TaskWaveOutcome;

TEST(ResolvePlanTest, EmptyPlanSurvivesWithNoFaults) {
  const PlanResolution res = resolve_plan(FaultPlan{}, EngineId::kSpark);
  EXPECT_TRUE(res.survives);
  EXPECT_EQ(res.faults_injected, 0u);
  EXPECT_EQ(res.retries, 0u);
}

TEST(ResolvePlanTest, FirstAttemptFaultIsOutRetried) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kWorkerOomKill, 0, 0});
  const PlanResolution res = resolve_plan(plan, EngineId::kSpark);
  EXPECT_TRUE(res.survives);
  EXPECT_EQ(res.faults_injected, 1u);
  EXPECT_EQ(res.retries, 1u);
}

TEST(ResolvePlanTest, EveryAttemptFaultIsFatal) {
  // Physics: an oversized cdist block is just as oversized on retry.
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kWorkerOomKill, FaultSpec::kEveryTask,
                           FaultSpec::kEveryAttempt});
  for (auto engine : {EngineId::kSpark, EngineId::kDask, EngineId::kRp,
                      EngineId::kMpi}) {
    const PlanResolution res = resolve_plan(plan, engine);
    EXPECT_FALSE(res.survives);
    EXPECT_EQ(res.fatal_fault, FaultKind::kWorkerOomKill);
  }
}

TEST(ResolvePlanTest, BudgetBoundsTheRecovery) {
  // Faults on attempts 0 and 1 survive a 3-try budget but not a 2-try.
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNetworkPartition, 4, 0});
  plan.schedule.push_back({FaultKind::kNetworkPartition, 4, 1});
  plan.retry.max_attempts = 3;
  EXPECT_TRUE(resolve_plan(plan, EngineId::kRp).survives);
  plan.retry.max_attempts = 2;
  const PlanResolution res = resolve_plan(plan, EngineId::kRp);
  EXPECT_FALSE(res.survives);
  EXPECT_EQ(res.fatal_fault, FaultKind::kNetworkPartition);
}

TEST(ResolvePlanTest, RecordsDecisionsIntoLog) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNodeCrash, 2, 0});
  RecoveryLog log;
  resolve_plan(plan, EngineId::kDask, &log);
  ASSERT_GE(log.size(), 1u);
  const auto events = log.events();
  EXPECT_EQ(events[0].task_id, 2u);
  EXPECT_EQ(events[0].fault, FaultKind::kNodeCrash);
  EXPECT_EQ(events[0].action, RecoveryAction::kRestartWorker);
}

TEST(SimulateTaskWaveTest, FaultFreeWaveMatchesIdealMakespan) {
  // 8 x 1 s tasks on 4 cores: two full waves.
  const TaskWaveOutcome out = simulate_task_wave(
      4, std::vector<double>(8, 1.0), FaultPlan{}, EngineId::kSpark);
  EXPECT_TRUE(out.completed);
  EXPECT_DOUBLE_EQ(out.makespan_s, 2.0);
  EXPECT_EQ(out.faults_injected, 0u);
}

TEST(SimulateTaskWaveTest, StragglerStretchesTheTail) {
  FaultPlan plan;
  plan.schedule.push_back(
      {FaultKind::kStraggler, 0, FaultSpec::kEveryAttempt, 4.0, 0.0});
  const TaskWaveOutcome out = simulate_task_wave(
      4, std::vector<double>(4, 1.0), plan, EngineId::kSpark);
  EXPECT_TRUE(out.completed);
  EXPECT_DOUBLE_EQ(out.makespan_s, 4.0);  // one task runs 4x
  EXPECT_EQ(out.faults_injected, 1u);
}

TEST(SimulateTaskWaveTest, SpeculationCapsTheStraggler) {
  FaultPlan plan;
  plan.schedule.push_back(
      {FaultKind::kStraggler, 0, FaultSpec::kEveryAttempt, 10.0, 0.0});
  plan.speculation.enabled = true;
  plan.speculation.threshold_factor = 1.5;
  const TaskWaveOutcome out = simulate_task_wave(
      4, std::vector<double>(4, 1.0), plan, EngineId::kSpark);
  EXPECT_TRUE(out.completed);
  // Copy launches at 1.5 s and needs 1 s: done at 2.5 s, not 10 s.
  EXPECT_DOUBLE_EQ(out.makespan_s, 2.5);
  EXPECT_EQ(out.speculative_copies, 1u);
}

TEST(SimulateTaskWaveTest, FailStopFaultIsRetriedToCompletion) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kWorkerOomKill, 1, 0});
  const TaskWaveOutcome out = simulate_task_wave(
      2, std::vector<double>(4, 1.0), plan, EngineId::kDask);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.faults_injected, 1u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_GT(out.makespan_s, 2.0);  // the retry costs extra virtual time
}

TEST(SimulateTaskWaveTest, UnrecoverableFaultFailsTheWave) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNodeCrash, 0,
                           FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  const TaskWaveOutcome out = simulate_task_wave(
      2, std::vector<double>(2, 1.0), plan, EngineId::kMpi);
  EXPECT_FALSE(out.completed);
  EXPECT_NE(out.failure.find("node-crash"), std::string::npos);
}

TEST(SimulateTaskWaveTest, DeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rates.node_crash = 0.01;
  plan.rates.worker_oom = 0.05;
  plan.rates.straggler = 0.10;
  plan.speculation.enabled = true;
  const std::vector<double> durations(256, 1.0);
  RecoveryLog log_a;
  RecoveryLog log_b;
  const TaskWaveOutcome a =
      simulate_task_wave(32, durations, plan, EngineId::kRp, &log_a);
  const TaskWaveOutcome b =
      simulate_task_wave(32, durations, plan, EngineId::kRp, &log_b);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(log_a.canonical(), log_b.canonical());
}

TEST(SimulateTaskWaveTest, DifferentSeedsChangeTheSchedule) {
  FaultPlan p1;
  p1.seed = 1;
  p1.rates.worker_oom = 0.2;
  FaultPlan p2 = p1;
  p2.seed = 2;
  const std::vector<double> durations(256, 1.0);
  RecoveryLog log_a;
  RecoveryLog log_b;
  simulate_task_wave(32, durations, p1, EngineId::kSpark, &log_a);
  simulate_task_wave(32, durations, p2, EngineId::kSpark, &log_b);
  // The faulted task sets differ (canonical lines carry task ids), even
  // if the fault *counts* happen to coincide.
  EXPECT_NE(log_a.canonical(), log_b.canonical());
}

const EngineId kAllEngines[] = {EngineId::kSpark, EngineId::kDask,
                                EngineId::kRp, EngineId::kMpi};

TEST(SimulateTaskWaveTest, MakespanEndsAtTheLastTaskNotTheRepairTimer) {
  // The crash's 5 s repair timer fires at 5.5 s, after the last task
  // finished at 4 s: it must not stretch the makespan.
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNodeCrash, 0, 0, 1.0, 5.0});
  for (const EngineId engine : kAllEngines) {
    const TaskWaveOutcome out = simulate_task_wave(
        2, std::vector<double>(4, 1.0), plan, engine);
    EXPECT_TRUE(out.completed) << to_string(engine);
    EXPECT_EQ(out.retries, 1u) << to_string(engine);
    EXPECT_DOUBLE_EQ(out.makespan_s, 4.0) << to_string(engine);
  }
}

TEST(SimulateTaskWaveTest, LeavesNeverEmptyThePool) {
  // A leave as large as the pool keeps one server, which runs every
  // task: kill engines restart the three preempted tasks, drain
  // engines let the four in-flight tasks finish first.
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeLeave, 0.5, 4});
  for (const EngineId engine : kAllEngines) {
    const TaskWaveOutcome out =
        simulate_task_wave(4, std::vector<double>(8, 1.0), FaultPlan{},
                           engine, nullptr, &membership);
    const bool kills =
        departure_for(engine, DeparturePolicy::kEngineDefault) ==
        DeparturePolicy::kKill;
    EXPECT_TRUE(out.completed) << to_string(engine);
    EXPECT_EQ(out.leaves, 1u) << to_string(engine);
    EXPECT_EQ(out.final_pool, 1u) << to_string(engine);
    EXPECT_EQ(out.preempted, kills ? 3u : 0u) << to_string(engine);
    EXPECT_DOUBLE_EQ(out.makespan_s, kills ? 8.0 : 5.0) << to_string(engine);
  }
}

TEST(SimulateTaskWaveTest, ZeroCoresRunOnOneServer) {
  const TaskWaveOutcome out = simulate_task_wave(
      0, std::vector<double>(8, 1.0), FaultPlan{}, EngineId::kDask);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.final_pool, 1u);
  EXPECT_DOUBLE_EQ(out.makespan_s, 8.0);
}

TEST(SimulateTaskWaveTest, LeaveHeavyChurnNeverStrandsWork) {
  // Five leaves against one join on a 4-server pool: without a floor
  // most of these replays would end with an empty pool and unrun tasks.
  const std::vector<double> durations(16, 1.0);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const EngineId engine : kAllEngines) {
      const MembershipPlan membership = churn_plan(seed, engine, 1, 5, 4.0);
      const TaskWaveOutcome out = simulate_task_wave(
          4, durations, FaultPlan{}, engine, nullptr, &membership);
      ASSERT_TRUE(out.completed) << to_string(engine) << " seed " << seed;
      ASSERT_GE(out.final_pool, 1u) << to_string(engine) << " seed " << seed;
      ASSERT_GE(out.makespan_s, 4.0) << to_string(engine) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mdtask::fault
