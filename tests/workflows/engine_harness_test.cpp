// The engine harness every workflow runner builds its engines through:
// membership plans applied through the autoscale actions at their
// effective (warm-up-delayed) times, the one MPI job helper, and the
// session's counter snapshot.
#include "mdtask/workflows/common.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <vector>

namespace mdtask::workflows {
namespace {

using Clock = std::chrono::steady_clock;
using fault::MembershipKind;

/// Actions that only record what the ElasticDriver asked for.
struct RecordingActions {
  std::mutex mu;
  std::vector<std::string> applied;
  std::promise<double> first_grow_s;
  bool grown = false;
  Clock::time_point start = Clock::now();

  autoscale::EngineActions actions() {
    autoscale::EngineActions a;
    a.grow = [this](std::size_t count) {
      std::lock_guard lk(mu);
      applied.push_back("join " + std::to_string(count));
      if (!grown) {
        grown = true;
        first_grow_s.set_value(
            std::chrono::duration<double>(Clock::now() - start).count());
      }
      return count;
    };
    a.shrink = [this](std::size_t count) {
      std::lock_guard lk(mu);
      applied.push_back("leave " + std::to_string(count));
      return count;
    };
    return a;
  }
};

TEST(ElasticDriverTest, JoinIsAppliedOnlyAfterItsWarmup) {
  fault::MembershipPlan plan;
  plan.schedule.push_back({MembershipKind::kNodeJoin, 0.0, 2});
  plan.join_warmup_s = 0.05;
  RecordingActions recorder;
  auto grow_s = recorder.first_grow_s.get_future();
  ElasticDriver driver(&plan, recorder.actions());
  ASSERT_EQ(grow_s.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_GE(grow_s.get(), 0.05);
}

TEST(ElasticDriverTest, EventsApplyInEffectiveTimeOrder) {
  // The join fires first but serves only after its warm-up, so the
  // later leave (which has none) takes effect before it.
  fault::MembershipPlan plan;
  plan.schedule.push_back({MembershipKind::kNodeJoin, 0.0, 2});
  plan.schedule.push_back({MembershipKind::kNodeLeave, 0.01, 1});
  plan.join_warmup_s = 0.04;
  RecordingActions recorder;
  auto grow_s = recorder.first_grow_s.get_future();
  {
    ElasticDriver driver(&plan, recorder.actions());
    ASSERT_EQ(grow_s.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }
  EXPECT_EQ(recorder.applied,
            (std::vector<std::string>{"leave 1", "join 2"}));
}

TEST(ElasticDriverTest, DestructionCancelsUnfiredEvents) {
  fault::MembershipPlan plan;
  plan.schedule.push_back({MembershipKind::kNodeLeave, 30.0, 1});
  RecordingActions recorder;
  { ElasticDriver driver(&plan, recorder.actions()); }
  EXPECT_TRUE(recorder.applied.empty());
}

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
