// The engine harness every workflow runner builds its engines through:
// the one MPI job helper and the session's counter snapshot.
#include "mdtask/workflows/common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mdtask::workflows {
namespace {

TEST(RunMpiJobTest, EmptyAndNullPlansRunOnceWithAJobLocalStore) {
  const fault::FaultPlan empty;
  const fault::FaultPlan* plans[] = {&empty, nullptr};
  for (const fault::FaultPlan* plan : plans) {
    EngineOptions options;
    options.fault_plan = plan;
    int puts = 0;
    const auto report = run_mpi_job(
        options, 3,
        [&](mpi::Communicator& comm, fault::CheckpointStore& store) {
          comm.barrier();
          if (comm.rank() == 0) {
            EXPECT_FALSE(store.contains("k"));
            store.put("k", std::vector<std::uint8_t>(8, 1));
            ++puts;
          }
        });
    EXPECT_EQ(report.attempts, 1);
    EXPECT_EQ(puts, 1);
  }
}

TEST(RunMpiJobTest, FaultPlanRestartsTheJob) {
  fault::FaultPlan plan;
  plan.schedule.push_back(
      {fault::FaultKind::kNodeCrash, fault::FaultSpec::kEveryTask, 0});
  fault::RecoveryLog log;
  EngineOptions options;
  options.fault_plan = &plan;
  options.recovery_log = &log;
  const auto report = run_mpi_job(
      options, 2, [](mpi::Communicator& comm, fault::CheckpointStore&) {
        comm.barrier();
      });
  EXPECT_EQ(report.attempts, 2);
  EXPECT_GT(log.size(), 0u);
}

TEST(EngineSessionTest, MetricsMirrorTheEngineCounters) {
  EngineOptions options;
  options.workers = 2;
  DaskSession session(options);
  auto f = session.engine().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  session.engine().metrics().shuffle_bytes += 5;
  const RunMetrics metrics = session.metrics();
  EXPECT_EQ(metrics.tasks, 1u);
  EXPECT_EQ(metrics.shuffle_bytes, 5u);
  EXPECT_EQ(metrics.wall_seconds, 0.0);
}

}  // namespace
}  // namespace mdtask::workflows
