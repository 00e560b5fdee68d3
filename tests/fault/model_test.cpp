// mdtask::fault vocabulary: specs, rates, retry policy, the recovery
// log and the checkpoint store.
#include <gtest/gtest.h>

#include "mdtask/fault/fault.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::fault {
namespace {

TEST(FaultSpecTest, ExplicitEntryFiresOnlyOnItsTaskAndAttempt) {
  const FaultSpec spec{FaultKind::kNodeCrash, 7, 1};
  EXPECT_TRUE(spec.fires_for(7, 1));
  EXPECT_FALSE(spec.fires_for(7, 0));
  EXPECT_FALSE(spec.fires_for(8, 1));
}

TEST(FaultSpecTest, WildcardsWidenTheBlastRadius) {
  const FaultSpec every_task{FaultKind::kWorkerOomKill, FaultSpec::kEveryTask,
                            0};
  EXPECT_TRUE(every_task.fires_for(0, 0));
  EXPECT_TRUE(every_task.fires_for(12345, 0));
  EXPECT_FALSE(every_task.fires_for(0, 1));

  const FaultSpec every_attempt{FaultKind::kWorkerOomKill, 3,
                               FaultSpec::kEveryAttempt};
  EXPECT_TRUE(every_attempt.fires_for(3, 0));
  EXPECT_TRUE(every_attempt.fires_for(3, 99));
  EXPECT_FALSE(every_attempt.fires_for(4, 0));
}

TEST(FaultSpecTest, NoneKindNeverFires) {
  const FaultSpec none;
  EXPECT_FALSE(none.fires_for(0, 0));
}

TEST(FaultPlanTest, EmptyMeansNoScheduleAndNoRates) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.rates.straggler = 0.1;
  EXPECT_FALSE(plan.empty());
  plan.rates.straggler = 0.0;
  plan.schedule.push_back({FaultKind::kNodeCrash, 0, 0});
  EXPECT_FALSE(plan.empty());
}

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  const RetryPolicy policy{.max_attempts = 5,
                           .backoff_s = 0.5,
                           .backoff_multiplier = 2.0};
  EXPECT_DOUBLE_EQ(backoff_for_attempt(policy, 1), 0.5);
  EXPECT_DOUBLE_EQ(backoff_for_attempt(policy, 2), 1.0);
  EXPECT_DOUBLE_EQ(backoff_for_attempt(policy, 3), 2.0);
}

TEST(RetryPolicyTest, ZeroBackoffStaysZero) {
  const RetryPolicy policy;  // backoff_s = 0
  EXPECT_DOUBLE_EQ(backoff_for_attempt(policy, 1), 0.0);
  EXPECT_DOUBLE_EQ(backoff_for_attempt(policy, 4), 0.0);
}

TEST(FaultToStringTest, AllKindsAndEnginesNamed) {
  EXPECT_STREQ(to_string(FaultKind::kNone), "none");
  EXPECT_STREQ(to_string(FaultKind::kNodeCrash), "node-crash");
  EXPECT_STREQ(to_string(FaultKind::kWorkerOomKill), "worker-oom-kill");
  EXPECT_STREQ(to_string(FaultKind::kStraggler), "straggler");
  EXPECT_STREQ(to_string(FaultKind::kNetworkPartition), "network-partition");
  EXPECT_STREQ(to_string(FaultKind::kFilesystemStall), "filesystem-stall");
  EXPECT_STREQ(to_string(EngineId::kSpark), "spark");
  EXPECT_STREQ(to_string(EngineId::kDask), "dask");
  EXPECT_STREQ(to_string(EngineId::kRp), "rp");
  EXPECT_STREQ(to_string(EngineId::kMpi), "mpi");
}

TEST(InjectedFaultTest, CarriesKindTaskAndAttempt) {
  const InjectedFault f(FaultKind::kNetworkPartition, 42, 2);
  EXPECT_EQ(f.kind(), FaultKind::kNetworkPartition);
  EXPECT_EQ(f.task_id(), 42u);
  EXPECT_EQ(f.attempt(), 2);
  EXPECT_NE(std::string(f.what()).find("network-partition"),
            std::string::npos);
}

TEST(RecoveryLogTest, RecordsAndRendersEvents) {
  RecoveryLog log;
  log.record({EngineId::kSpark, 12, 0, FaultKind::kWorkerOomKill,
              RecoveryAction::kReexecuteLineage, 0.0, 0.0});
  ASSERT_EQ(log.size(), 1u);
  const auto events = log.events();
  EXPECT_EQ(events[0].task_id, 12u);
  EXPECT_EQ(
      events[0].to_string(),
      "spark task=12 attempt=0 fault=worker-oom-kill "
      "action=reexecute-lineage");
}

TEST(RecoveryLogTest, CanonicalOrderIsInterleavingIndependent) {
  RecoveryLog a;
  RecoveryLog b;
  const RecoveryEvent e1{EngineId::kDask, 1, 0, FaultKind::kNodeCrash,
                         RecoveryAction::kRestartWorker, 0.0, 0.0};
  const RecoveryEvent e2{EngineId::kDask, 2, 0, FaultKind::kStraggler,
                         RecoveryAction::kSpeculativeCopy, 0.0, 5.0};
  a.record(e1);
  a.record(e2);
  b.record(e2);  // reversed arrival order (a different thread schedule)
  b.record(e1);
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(RecoveryLogTest, MirrorsEventsIntoTracer) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  const trace::Track track =
      tracer.thread(tracer.process("fault-test"), "log");
  RecoveryLog log;
  log.attach_tracer(&tracer, track);
  log.record({EngineId::kRp, 3, 1, FaultKind::kFilesystemStall,
              RecoveryAction::kRetryWithBackoff, 0.25, 100.0});
  bool saw_fault = false;
  bool saw_recovery = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "fault:filesystem-stall") saw_fault = true;
    if (e.name == "recovery:retry-with-backoff") saw_recovery = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_recovery);
}

TEST(RecoveryLogTest, ExchangeRecordsRenderEngineFree) {
  RecoveryLog log;
  log.record_exchange({2, 1, 2, 3, 0, true, 125.0});
  ASSERT_EQ(log.exchange_size(), 1u);
  const auto events = log.exchange_events();
  // No engine, no timestamp in the rendering: the canonical exchange
  // stream must be byte-identical across engines and live-vs-DES.
  EXPECT_EQ(events[0].to_string(),
            "repex round=2 pair=1/2 configs=3/0 accept=1");
}

TEST(RecoveryLogTest, CanonicalInterleavesExchangeAndRecoveryLines) {
  RecoveryLog a;
  RecoveryLog b;
  const RecoveryEvent e{EngineId::kMpi, 1, 0, FaultKind::kNodeCrash,
                        RecoveryAction::kCheckpointRestart, 0.0, 0.0};
  a.record(e);
  a.record_exchange({0, 0, 1, 0, 1, false, 1.0});
  b.record_exchange({0, 0, 1, 0, 1, false, 99.0});  // ts differs: ignored
  b.record(e);
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.canonical().size(), 2u);
}

TEST(RecoveryLogTest, ExchangeRecordsMirrorIntoTracer) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  RecoveryLog log;
  log.attach_tracer(&tracer,
                    tracer.thread(tracer.process("fault-test"), "log"));
  log.record_exchange({0, 0, 1, 0, 1, true, 10.0});
  bool saw = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "repex:exchange") saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(CheckpointStoreTest, PutGetContains) {
  CheckpointStore store;
  EXPECT_FALSE(store.contains("phase1"));
  EXPECT_EQ(store.size(), 0u);
  store.put("phase1", {1, 2, 3});
  EXPECT_TRUE(store.contains("phase1"));
  EXPECT_EQ(store.get("phase1"), (std::vector<std::uint8_t>{1, 2, 3}));
  store.put("phase1", {9});  // overwrite, like a newer checkpoint
  EXPECT_EQ(store.get("phase1"), (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace mdtask::fault
