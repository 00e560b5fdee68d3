// Per-engine recovery: inject each fault kind into real engine runs and
// assert the workload completes with results identical to a fault-free
// run — plus the determinism contract (same seed => same canonical
// fault/recovery sequence) and structured failure context on give-up.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>

#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/recovery.h"

namespace mdtask {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::RecoveryLog;

/// A plan that faults every task exactly once (attempt 0) with `kind`.
FaultPlan once_per_task(FaultKind kind) {
  FaultPlan plan;
  plan.schedule.push_back({kind, FaultSpec::kEveryTask, 0,
                           kind == FaultKind::kStraggler ? 2.0 : 1.0,
                           kind == FaultKind::kStraggler ||
                                   kind == FaultKind::kFilesystemStall
                               ? 0.001
                               : 0.0});
  return plan;
}

const FaultKind kAllKinds[] = {
    FaultKind::kNodeCrash, FaultKind::kWorkerOomKill, FaultKind::kStraggler,
    FaultKind::kNetworkPartition, FaultKind::kFilesystemStall};

// ------------------------------------------------------------- Spark --

std::vector<int> spark_squares(const FaultPlan* plan, RecoveryLog* log) {
  spark::SparkContext sc(spark::SparkConfig{
      .executor_threads = 4, .fault_plan = plan, .recovery_log = log});
  std::vector<int> input(32);
  std::iota(input.begin(), input.end(), 0);
  return sc.parallelize(std::move(input), 8)
      .map([](const int& x) { return x * x; })
      .collect();
}

TEST(SparkRecoveryTest, EveryFaultKindRecoversWithIdenticalResults) {
  const std::vector<int> expected = spark_squares(nullptr, nullptr);
  for (FaultKind kind : kAllKinds) {
    const FaultPlan plan = once_per_task(kind);
    RecoveryLog log;
    EXPECT_EQ(spark_squares(&plan, &log), expected)
        << "kind=" << fault::to_string(kind);
    if (kind != FaultKind::kStraggler &&
        kind != FaultKind::kFilesystemStall) {
      // Fail-stop kinds must have gone through lineage re-execution.
      EXPECT_GT(log.size(), 0u) << "kind=" << fault::to_string(kind);
      for (const auto& e : log.events()) {
        EXPECT_EQ(e.action, fault::RecoveryAction::kReexecuteLineage);
      }
    }
  }
}

std::string spark_tree_concat(const FaultPlan* plan, RecoveryLog* log) {
  spark::SparkContext sc(spark::SparkConfig{
      .executor_threads = 4, .fault_plan = plan, .recovery_log = log});
  std::vector<std::string> input;
  for (int i = 0; i < 110; ++i) input.push_back(std::to_string(i) + ",");
  // 55 partitions: a map stage of 55 folds, then one 6-bucket level.
  return sc.parallelize(std::move(input), 55)
      .tree_reduce([](std::string a, const std::string& b) {
        a += b;
        return a;
      });
}

TEST(SparkRecoveryTest, TreeReduceRecoversLostTasksIdentically) {
  const std::string expected = spark_tree_concat(nullptr, nullptr);
  const FaultPlan plan = once_per_task(FaultKind::kWorkerOomKill);
  RecoveryLog log;
  EXPECT_EQ(spark_tree_concat(&plan, &log), expected);
  // Every task of both stages lost its first attempt and was re-executed.
  EXPECT_EQ(log.size(), 55u + 6u);
  std::set<std::uint64_t> stages;
  for (const auto& e : log.events()) {
    EXPECT_EQ(e.action, fault::RecoveryAction::kReexecuteLineage);
    stages.insert(e.task_id >> 20);
  }
  EXPECT_EQ(stages, (std::set<std::uint64_t>{1, 2}));
}

TEST(SparkRecoveryTest, ExhaustedBudgetSurfacesInjectedFault) {
  FaultPlan plan;
  plan.schedule.push_back(
      {FaultKind::kNodeCrash, FaultSpec::kEveryTask,
       FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  EXPECT_THROW(spark_squares(&plan, nullptr), fault::InjectedFault);
}

// -------------------------------------------------------------- Dask --

std::vector<int> dask_triples(const FaultPlan* plan, RecoveryLog* log,
                              std::uint64_t* restarts = nullptr) {
  dask::DaskClient client(dask::DaskConfig{
      .workers = 4, .fault_plan = plan, .recovery_log = log});
  std::vector<dask::Future<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(client.submit([i] { return 3 * i; }));
  }
  std::vector<int> out;
  for (const auto& f : futures) out.push_back(f.get());
  if (restarts != nullptr) *restarts = client.worker_restarts();
  return out;
}

TEST(DaskRecoveryTest, EveryFaultKindRecoversWithIdenticalResults) {
  const std::vector<int> expected = dask_triples(nullptr, nullptr);
  for (FaultKind kind : kAllKinds) {
    const FaultPlan plan = once_per_task(kind);
    RecoveryLog log;
    std::uint64_t restarts = 0;
    EXPECT_EQ(dask_triples(&plan, &log, &restarts), expected)
        << "kind=" << fault::to_string(kind);
    if (kind == FaultKind::kWorkerOomKill || kind == FaultKind::kNodeCrash) {
      // distributed answers memory kills and crashes by restarting the
      // worker before rescheduling the task.
      EXPECT_GT(restarts, 0u) << "kind=" << fault::to_string(kind);
    }
  }
}

TEST(DaskRecoveryTest, ExhaustedBudgetFailsTheFuture) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNetworkPartition, FaultSpec::kEveryTask,
                           FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  dask::DaskClient client(
      dask::DaskConfig{.workers = 2, .fault_plan = &plan});
  auto f = client.submit([] { return 1; });
  EXPECT_THROW(f.get(), fault::InjectedFault);
}

TEST(DaskRecoveryTest, SameSeedGivesIdenticalRecoverySequence) {
  FaultPlan plan;
  plan.seed = 2024;
  plan.rates.worker_oom = 0.5;
  plan.rates.straggler = 0.0;  // pure fail-stop: every fault is logged
  plan.retry.max_attempts = 12;  // out-retry any plausible fault streak
  RecoveryLog log_a;
  RecoveryLog log_b;
  const auto a = dask_triples(&plan, &log_a);
  const auto b = dask_triples(&plan, &log_b);
  EXPECT_EQ(a, b);
  // Task ids are submission-order and decisions are a pure hash, so the
  // canonical sequences match event-for-event across runs regardless of
  // worker-thread interleaving.
  EXPECT_EQ(log_a.canonical(), log_b.canonical());
  EXPECT_GT(log_a.size(), 0u);

  FaultPlan other = plan;
  other.seed = 2025;
  RecoveryLog log_c;
  dask_triples(&other, &log_c);
  EXPECT_NE(log_a.canonical(), log_c.canonical());
}

// ---------------------------------------------------------------- RP --

TEST(RpRecoveryTest, FaultedUnitsRetryAndComplete) {
  for (FaultKind kind : kAllKinds) {
    const FaultPlan plan = once_per_task(kind);
    RecoveryLog log;
    rp::UnitManager um(rp::PilotDescription{
        .cores = 4, .fault_plan = &plan, .recovery_log = &log});
    std::vector<rp::ComputeUnitDescription> descriptions;
    for (int i = 0; i < 8; ++i) {
      const std::string path = "out_" + std::to_string(i) + ".bin";
      descriptions.push_back(
          {.name = "unit_" + std::to_string(i),
           .executable =
               [path, i](rp::SharedFilesystem& fs) {
                 fs.put(path, {static_cast<std::uint8_t>(i)});
               },
           .output_staging = {path}});
    }
    auto units = um.submit_units(std::move(descriptions));
    um.wait_units();
    for (const auto& u : units) {
      EXPECT_EQ(u->state(), rp::UnitState::kDone)
          << "kind=" << fault::to_string(kind);
    }
    for (int i = 0; i < 8; ++i) {
      auto data = um.filesystem().get("out_" + std::to_string(i) + ".bin");
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(data.value(),
                (std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)}));
    }
    if (kind != FaultKind::kStraggler &&
        kind != FaultKind::kFilesystemStall) {
      EXPECT_GT(log.size(), 0u);
      for (const auto& e : log.events()) {
        EXPECT_EQ(e.action, fault::RecoveryAction::kRetryWithBackoff);
      }
    }
  }
}

TEST(RpRecoveryTest, GiveUpCarriesStructuredFailureContext) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNodeCrash, 0,
                           FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  rp::UnitManager um(
      rp::PilotDescription{.cores = 2, .fault_plan = &plan});
  auto units = um.submit_units(
      {{.name = "doomed", .executable = [](rp::SharedFilesystem&) {}}});
  um.wait_units();
  ASSERT_EQ(units[0]->state(), rp::UnitState::kFailed);
  const std::string& reason = units[0]->failure_reason();
  EXPECT_NE(reason.find("engine=rp"), std::string::npos) << reason;
  EXPECT_NE(reason.find("task=0"), std::string::npos);
  EXPECT_NE(reason.find("attempt=1"), std::string::npos);
  EXPECT_NE(reason.find("fault=node-crash"), std::string::npos);
}

// --------------------------------------------------------------- MPI --

TEST(MpiRecoveryTest, CheckpointRestartRecoversEveryFailStopKind) {
  for (FaultKind kind : {FaultKind::kNodeCrash, FaultKind::kWorkerOomKill,
                         FaultKind::kNetworkPartition}) {
    FaultPlan plan;
    plan.schedule.push_back({kind, 0, 0});  // rank 0 dies on attempt 0
    RecoveryLog log;
    std::atomic<int> body_runs{0};
    std::vector<int> sums(4, 0);
    auto report = mpi::run_spmd_with_recovery(
        4,
        [&](mpi::Communicator& comm, fault::CheckpointStore& checkpoints) {
          body_runs.fetch_add(1);
          if (comm.rank() == 0 && !checkpoints.contains("started")) {
            checkpoints.put("started", {1});
          }
          const auto v = comm.allreduce(std::vector<int>{comm.rank() + 1},
                                        [](int a, int b) { return a + b; });
          sums[static_cast<std::size_t>(comm.rank())] = v[0];
        },
        plan, &log);
    // The faulted attempt aborted before any rank entered the body; only
    // the clean relaunch ran it.
    EXPECT_EQ(body_runs.load(), 4) << "kind=" << fault::to_string(kind);
    for (int s : sums) EXPECT_EQ(s, 1 + 2 + 3 + 4);
    EXPECT_GT(report.total.messages_sent, 0u);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.events()[0].action,
              fault::RecoveryAction::kCheckpointRestart);
    EXPECT_EQ(log.events()[0].fault, kind);
  }
}

TEST(MpiRecoveryTest, SlowdownFaultsDoNotAbort) {
  FaultPlan plan;
  plan.schedule.push_back(
      {FaultKind::kStraggler, FaultSpec::kEveryTask, 0, 1.0, 0.001});
  RecoveryLog log;
  std::atomic<int> body_runs{0};
  mpi::run_spmd_with_recovery(
      3,
      [&](mpi::Communicator& comm, fault::CheckpointStore&) {
        body_runs.fetch_add(1);
        comm.barrier();
      },
      plan, &log);
  EXPECT_EQ(body_runs.load(), 3);
  EXPECT_EQ(log.size(), 0u);  // no recovery decision for pure slowdowns
}

TEST(MpiRecoveryTest, ExhaustedBudgetThrowsInjectedFault) {
  FaultPlan plan;
  plan.schedule.push_back({FaultKind::kNodeCrash, 1,
                           FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  RecoveryLog log;
  EXPECT_THROW(
      mpi::run_spmd_with_recovery(
          4, [](mpi::Communicator&, fault::CheckpointStore&) {}, plan,
          &log),
      fault::InjectedFault);
  // Attempt 0 earned a restart; attempt 1 exhausted the 2-try budget.
  ASSERT_EQ(log.size(), 2u);
  const auto canonical = log.canonical();
  EXPECT_NE(canonical[0].find("checkpoint-restart"), std::string::npos);
  EXPECT_NE(canonical[1].find("give-up"), std::string::npos);
}

}  // namespace
}  // namespace mdtask
