// Seeded membership schedules: determinism of churn_plan draws, the
// canonical RecoveryLog merge, departure-policy resolution, and the
// DES task-wave replay under joins/leaves (per-engine semantics,
// byte-identical logs and traces per seed).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mdtask/autoscale/task_wave.h"
#include "mdtask/fault/membership.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/fault/sim_faults.h"
#include "mdtask/trace/chrome_export.h"

namespace mdtask {
namespace {

using fault::DeparturePolicy;
using fault::EngineId;
using fault::FaultPlan;
using fault::MembershipKind;
using fault::MembershipPlan;
using fault::RecoveryLog;

const EngineId kEngines[] = {EngineId::kSpark, EngineId::kDask,
                             EngineId::kRp, EngineId::kMpi};

// --------------------------------------------------- plan generation --

TEST(MembershipPlanTest, ChurnPlanIsDeterministicPerSeed) {
  for (const EngineId engine : kEngines) {
    const auto a = fault::churn_plan(42, engine, 3, 2, 30.0);
    const auto b = fault::churn_plan(42, engine, 3, 2, 30.0);
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < a.schedule.size(); ++i) {
      EXPECT_EQ(a.schedule[i].kind, b.schedule[i].kind);
      EXPECT_DOUBLE_EQ(a.schedule[i].at_s, b.schedule[i].at_s);
      EXPECT_EQ(a.schedule[i].count, b.schedule[i].count);
    }
  }
}

TEST(MembershipPlanTest, EnginesDrawIndependentStreams) {
  const auto spark = fault::churn_plan(42, EngineId::kSpark, 4, 4, 30.0);
  const auto dask = fault::churn_plan(42, EngineId::kDask, 4, 4, 30.0);
  ASSERT_EQ(spark.schedule.size(), dask.schedule.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < spark.schedule.size(); ++i) {
    if (spark.schedule[i].at_s != dask.schedule[i].at_s) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "spark and dask schedules share every event time";
}

TEST(MembershipPlanTest, DifferentSeedsMoveTheSchedule) {
  const auto a = fault::churn_plan(42, EngineId::kSpark, 4, 4, 30.0);
  const auto b = fault::churn_plan(43, EngineId::kSpark, 4, 4, 30.0);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    if (a.schedule[i].at_s != b.schedule[i].at_s) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(MembershipPlanTest, ScheduleIsSortedAndCountsAreHonoured) {
  const auto plan = fault::churn_plan(7, EngineId::kRp, 5, 3, 60.0, 2);
  ASSERT_EQ(plan.schedule.size(), 8u);
  EXPECT_EQ(plan.joins(), 5u);
  EXPECT_EQ(plan.leaves(), 3u);
  for (std::size_t i = 1; i < plan.schedule.size(); ++i) {
    EXPECT_LE(plan.schedule[i - 1].at_s, plan.schedule[i].at_s);
  }
  for (const auto& ev : plan.schedule) {
    EXPECT_EQ(ev.count, 2u);
    EXPECT_GE(ev.at_s, 0.0);
    EXPECT_LT(ev.at_s, 60.0);
  }
}

TEST(MembershipPlanTest, DeparturePolicyResolvesPerEngine) {
  // Engine defaults: Spark kills (lineage), Dask/RP drain, MPI is rigid.
  EXPECT_EQ(fault::departure_for(EngineId::kSpark,
                                 DeparturePolicy::kEngineDefault),
            DeparturePolicy::kKill);
  EXPECT_EQ(fault::departure_for(EngineId::kDask,
                                 DeparturePolicy::kEngineDefault),
            DeparturePolicy::kDrain);
  EXPECT_EQ(fault::departure_for(EngineId::kRp,
                                 DeparturePolicy::kEngineDefault),
            DeparturePolicy::kDrain);
  // MPI kills regardless of the requested policy — there is no graceful
  // shrink of a rigid job.
  EXPECT_EQ(fault::departure_for(EngineId::kMpi, DeparturePolicy::kDrain),
            DeparturePolicy::kKill);
  // Explicit overrides stick for elastic engines.
  EXPECT_EQ(fault::departure_for(EngineId::kDask, DeparturePolicy::kKill),
            DeparturePolicy::kKill);
  EXPECT_EQ(fault::departure_for(EngineId::kSpark, DeparturePolicy::kDrain),
            DeparturePolicy::kDrain);
}

// ------------------------------------------------------ recovery log --

TEST(MembershipRecordTest, LineFormatIsStable) {
  const fault::MembershipRecord record{
      EngineId::kDask, MembershipKind::kNodeLeave, 1, 2, 4, 1, 0.0};
  EXPECT_EQ(record.to_string(),
            "dask elastic#1 node-leave count=2 pool=4 preempted=1");
}

TEST(MembershipRecordTest, CanonicalMergesFaultAndMembershipLines) {
  RecoveryLog log;
  log.record({EngineId::kSpark, 7, 0, fault::FaultKind::kNodeCrash,
              fault::RecoveryAction::kReexecuteLineage, 0.0, 0.0});
  log.record_membership(
      {EngineId::kSpark, MembershipKind::kNodeJoin, 0, 1, 5, 0, 0.0});
  EXPECT_EQ(log.size(), 1u) << "size() stays fault-only";
  EXPECT_EQ(log.membership_size(), 1u);
  std::string canonical;
  for (const auto& line : log.canonical()) canonical += line + "\n";
  EXPECT_NE(canonical.find("elastic#0 node-join"), std::string::npos);
  EXPECT_NE(canonical.find("node-crash"), std::string::npos);
}

TEST(MembershipRecordTest, MembershipEventsMirrorAsElasticInstants) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t pid = tracer.process("test");
  RecoveryLog log;
  log.attach_tracer(&tracer, tracer.thread(pid, "driver"));
  log.record_membership(
      {EngineId::kRp, MembershipKind::kNodeJoin, 0, 2, 6, 0, 10.0});
  log.record_membership(
      {EngineId::kRp, MembershipKind::kNodeLeave, 1, 1, 5, 0, 20.0});
  trace::ChromeExportOptions options;
  options.sort_events = true;
  const std::string json = trace::to_chrome_json(tracer, options);
  EXPECT_NE(json.find("elastic:node-join"), std::string::npos);
  EXPECT_NE(json.find("elastic:node-leave"), std::string::npos);
}

// ------------------------------------------------ DES task-wave replay --

std::vector<double> uniform_tasks(std::size_t n, double s) {
  return std::vector<double>(n, s);
}

TEST(ElasticWaveTest, MidRunJoinShortensTheMakespan) {
  const auto tasks = uniform_tasks(256, 1.0);
  const FaultPlan no_faults;
  const double fixed =
      autoscale::simulate_task_wave(32, tasks, no_faults, EngineId::kSpark)
          .makespan_s;
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeJoin, 2.0, 32});
  const auto grown = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kSpark, nullptr, &membership);
  EXPECT_EQ(grown.joins, 1u);
  EXPECT_LT(grown.makespan_s, fixed);
  EXPECT_EQ(grown.final_pool, 64u);
}

TEST(ElasticWaveTest, LeaveHeavyScheduleLengthensTheMakespan) {
  const auto tasks = uniform_tasks(256, 1.0);
  const FaultPlan no_faults;
  const double fixed =
      autoscale::simulate_task_wave(32, tasks, no_faults, EngineId::kDask)
          .makespan_s;
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeLeave, 2.0, 16});
  const auto shrunk = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kDask, nullptr, &membership);
  EXPECT_EQ(shrunk.leaves, 1u);
  EXPECT_GT(shrunk.makespan_s, fixed);
  EXPECT_EQ(shrunk.final_pool, 16u);
}

TEST(ElasticWaveTest, JoinHeavyMpiStaysRigid) {
  const auto tasks = uniform_tasks(128, 1.0);
  const FaultPlan no_faults;
  const double fixed =
      autoscale::simulate_task_wave(32, tasks, no_faults, EngineId::kMpi)
          .makespan_s;
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeJoin, 1.0, 32});
  membership.schedule.push_back({MembershipKind::kNodeJoin, 2.0, 32});
  RecoveryLog log;
  const auto outcome = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kMpi, &log, &membership);
  // Joins are logged but the rigid pool never grows.
  EXPECT_EQ(outcome.joins, 2u);
  EXPECT_EQ(log.membership_size(), 2u);
  EXPECT_EQ(outcome.final_pool, 32u);
  EXPECT_DOUBLE_EQ(outcome.makespan_s, fixed);
}

TEST(ElasticWaveTest, KillLeavesPreemptButDrainLeavesDoNot) {
  const auto tasks = uniform_tasks(256, 1.0);
  const FaultPlan no_faults;
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeLeave, 1.5, 8});
  // Spark's default departure is kill: mid-flight holds are preempted.
  const auto spark = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kSpark, nullptr, &membership);
  EXPECT_GT(spark.preempted, 0u);
  // Dask drains: in-flight holds finish, nothing preempted.
  const auto dask = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kDask, nullptr, &membership);
  EXPECT_EQ(dask.preempted, 0u);
  EXPECT_EQ(spark.final_pool, dask.final_pool);
}

TEST(ElasticWaveTest, JoinWarmupDelaysTheCapacity) {
  const auto tasks = uniform_tasks(128, 1.0);
  const FaultPlan no_faults;
  MembershipPlan warm;
  warm.schedule.push_back({MembershipKind::kNodeJoin, 1.0, 32});
  MembershipPlan cold = warm;
  cold.join_warmup_s = 2.0;
  const auto fast = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kDask, nullptr, &warm);
  const auto slow = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kDask, nullptr, &cold);
  EXPECT_LE(fast.makespan_s, slow.makespan_s);
  EXPECT_EQ(slow.final_pool, 64u);
}

TEST(ElasticWaveTest, ChurnScheduleKeepsWaveCompleting) {
  const auto tasks = uniform_tasks(200, 0.5);
  FaultPlan plan;
  plan.seed = 42;
  plan.rates.worker_oom = 0.02;
  for (const EngineId engine : kEngines) {
    const auto membership = fault::churn_plan(42, engine, 3, 3, 20.0);
    const auto outcome = autoscale::simulate_task_wave(
        16, tasks, plan, engine, nullptr, &membership);
    EXPECT_TRUE(outcome.completed) << fault::to_string(engine);
    EXPECT_EQ(outcome.joins + outcome.leaves, membership.schedule.size())
        << fault::to_string(engine);
  }
}

// One join + one leave: byte-identical canonical recovery logs AND
// byte-identical Chrome traces across repeated runs, on all four
// engines (the PR's acceptance scenario).
TEST(ElasticWaveTest, RepeatedRunsAreByteIdenticalPerEngine) {
  const auto tasks = uniform_tasks(96, 1.0);
  FaultPlan plan;
  plan.seed = 42;
  plan.rates.node_crash = 0.01;
  for (const EngineId engine : kEngines) {
    MembershipPlan membership;
    membership.schedule.push_back({MembershipKind::kNodeJoin, 1.0, 8});
    membership.schedule.push_back({MembershipKind::kNodeLeave, 2.0, 4});
    std::vector<std::string> canonical[2];
    std::string trace_json[2];
    double makespan[2] = {0.0, 0.0};
    for (int run = 0; run < 2; ++run) {
      trace::Tracer tracer;
      tracer.set_enabled(true);
      RecoveryLog log;
      log.attach_tracer(&tracer,
                        tracer.thread(tracer.process("wave"), "driver"));
      const auto outcome = autoscale::simulate_task_wave(
          16, tasks, plan, engine, &log, &membership);
      canonical[run] = log.canonical();
      makespan[run] = outcome.makespan_s;
      trace::ChromeExportOptions options;
      options.sort_events = true;
      trace_json[run] = trace::to_chrome_json(tracer, options);
    }
    EXPECT_EQ(canonical[0], canonical[1]) << fault::to_string(engine);
    EXPECT_FALSE(canonical[0].empty()) << fault::to_string(engine);
    EXPECT_EQ(trace_json[0], trace_json[1]) << fault::to_string(engine);
    EXPECT_DOUBLE_EQ(makespan[0], makespan[1]) << fault::to_string(engine);
  }
}

TEST(ElasticWaveTest, PoolTimelineTracksEveryMembershipEvent) {
  const auto tasks = uniform_tasks(128, 1.0);
  const FaultPlan no_faults;
  MembershipPlan membership;
  membership.schedule.push_back({MembershipKind::kNodeJoin, 1.0, 8});
  membership.schedule.push_back({MembershipKind::kNodeLeave, 2.0, 4});
  std::vector<autoscale::PoolSample> timeline;
  const auto outcome = autoscale::simulate_task_wave(
      32, tasks, no_faults, EngineId::kDask, nullptr, &membership,
      &timeline);
  ASSERT_EQ(timeline.size(), 3u);  // initial + join + leave
  EXPECT_DOUBLE_EQ(timeline[0].at_s, 0.0);
  EXPECT_EQ(timeline[0].servers, 32u);
  EXPECT_EQ(timeline[1].servers, 40u);
  EXPECT_EQ(timeline[2].servers, 36u);
  EXPECT_EQ(outcome.final_pool, 36u);
}

// --------------------------------------------- checkpoint cost model --

TEST(CheckpointCostTest, AlphaBetaModelScalesWithBytes) {
  const auto model = fault::checkpoint_model_for(sim::wrangler());
  EXPECT_GT(model.write_s(1 << 20), model.write_s(0));
  EXPECT_GT(model.restore_s(1 << 30), model.restore_s(1 << 20));
  // Comet's Lustre is slower than Wrangler's flash.
  const auto comet = fault::checkpoint_model_for(sim::comet());
  EXPECT_GT(comet.write_s(1 << 30), model.write_s(1 << 30));
}

TEST(CheckpointCostTest, StoreAccruesModeledSeconds) {
  fault::CheckpointStore store;
  store.set_cost_model(fault::checkpoint_model_for(sim::wrangler()));
  store.put("state", std::vector<std::uint8_t>(1 << 20, 0xab));
  EXPECT_EQ(store.bytes_stored(), std::uint64_t{1} << 20);
  EXPECT_GT(store.modeled_write_s(), 0.0);
  EXPECT_DOUBLE_EQ(store.modeled_restore_s(), 0.0);
  (void)store.get("state");
  EXPECT_GT(store.modeled_restore_s(), 0.0);
}

TEST(CheckpointCostTest, DalySweepIsConvexAroundTheOptimum) {
  const double checkpoint_s = 5.0;
  const double mtbf_s = 3600.0;
  const double daly = fault::daly_optimum_interval(checkpoint_s, mtbf_s);
  EXPECT_NEAR(daly, std::sqrt(2.0 * checkpoint_s * mtbf_s) - checkpoint_s,
              1e-9);
  const double at_daly =
      fault::simulate_checkpointed_job(7200.0, daly, checkpoint_s, 30.0,
                                       mtbf_s, 42)
          .total_s;
  const double too_short =
      fault::simulate_checkpointed_job(7200.0, daly / 8.0, checkpoint_s,
                                       30.0, mtbf_s, 42)
          .total_s;
  const double too_long =
      fault::simulate_checkpointed_job(7200.0, daly * 8.0, checkpoint_s,
                                       30.0, mtbf_s, 42)
          .total_s;
  EXPECT_LT(at_daly, too_short);
  EXPECT_LT(at_daly, too_long);
}

TEST(CheckpointCostTest, CheckpointedJobIsDeterministicPerSeed) {
  const auto a =
      fault::simulate_checkpointed_job(3600.0, 120.0, 2.0, 10.0, 900.0, 42);
  const auto b =
      fault::simulate_checkpointed_job(3600.0, 120.0, 2.0, 10.0, 900.0, 42);
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.failures, b.failures);
  const auto c =
      fault::simulate_checkpointed_job(3600.0, 120.0, 2.0, 10.0, 900.0, 43);
  EXPECT_NE(a.total_s, c.total_s);
}

}  // namespace
}  // namespace mdtask
