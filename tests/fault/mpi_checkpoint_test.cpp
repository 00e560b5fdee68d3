// MPI's rigid checkpoint-restart: the calibrated checkpoint write and
// restore costs flow into the SpmdReport, on a clean run and on a
// relaunch after a fail-stop.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/fault/recovery.h"

namespace mdtask {
namespace {

using fault::RecoveryLog;

TEST(MpiElasticTest, CheckpointCostsFlowIntoTheSpmdReport) {
  const fault::CheckpointCostModel model{
      .write_latency_s = 1e-3,
      .write_Bps = 1e9,
      .restore_latency_s = 1e-3,
      .restore_Bps = 2e9,
  };
  const std::uint64_t state_bytes = 1ull << 20;
  const auto report = mpi::run_spmd_with_recovery(
      2,
      [&](mpi::Communicator& comm, fault::CheckpointStore& store) {
        if (comm.rank() == 0) {
          store.put("state",
                    std::vector<std::uint8_t>(state_bytes, 0xAB));
          (void)store.get("state");
        }
        std::vector<int> token{comm.rank()};
        comm.bcast(token, 0);
      },
      fault::FaultPlan{}, nullptr, mpi::BcastAlgorithm::kBinomialTree,
      nullptr, &model);

  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.checkpoint_bytes, state_bytes);
  EXPECT_DOUBLE_EQ(report.checkpoint_write_s, model.write_s(state_bytes));
  EXPECT_DOUBLE_EQ(report.checkpoint_restore_s,
                   model.restore_s(state_bytes));
}

TEST(MpiElasticTest, RigidRestartStillPaysTheModeledWriteCost) {
  // A fail-stop on attempt 0 aborts the whole job (MPI has no per-task
  // recovery); the relaunch succeeds and checkpoints its state with the
  // calibrated model applied.
  fault::FaultPlan plan;
  plan.schedule.push_back(
      {fault::FaultKind::kNodeCrash, fault::FaultSpec::kEveryTask, 0});
  const fault::CheckpointCostModel model{.write_latency_s = 1e-3,
                                         .write_Bps = 1e9};
  RecoveryLog log;
  const auto report = mpi::run_spmd_with_recovery(
      2,
      [](mpi::Communicator& comm, fault::CheckpointStore& store) {
        if (comm.rank() == 0 && !store.contains("state")) {
          store.put("state", std::vector<std::uint8_t>(4096, 1));
        }
      },
      plan, &log, mpi::BcastAlgorithm::kBinomialTree, nullptr, &model);

  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.checkpoint_bytes, 4096u);
  EXPECT_DOUBLE_EQ(report.checkpoint_write_s, model.write_s(4096));
  EXPECT_GT(log.size(), 0u);
}

}  // namespace
}  // namespace mdtask
