#include "mdtask/sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace mdtask::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.at(3.0, [&] { order.push_back(3); });
  simulation.at(1.0, [&] { order.push_back(1); });
  simulation.at(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(simulation.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, TiesFireInScheduleOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulation.at(1.0, [&order, i] { order.push_back(i); });
  }
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, NestedSchedulingAdvancesClock) {
  Simulation simulation;
  double observed = -1.0;
  simulation.after(1.0, [&] {
    simulation.after(2.0, [&] { observed = simulation.now(); });
  });
  simulation.run();
  EXPECT_DOUBLE_EQ(observed, 3.0);
}

TEST(SimulationTest, PastSchedulingThrows) {
  Simulation simulation;
  simulation.after(5.0, [&] {
    EXPECT_THROW(simulation.at(1.0, [] {}), std::invalid_argument);
  });
  simulation.run();
}

TEST(ResourceTest, ParallelWithinCapacity) {
  Simulation simulation;
  Resource cores(simulation, 4);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    cores.acquire(10.0, [&] { ++done; });
  }
  EXPECT_DOUBLE_EQ(simulation.run(), 10.0);  // all parallel
  EXPECT_EQ(done, 4);
}

TEST(ResourceTest, ExcessRequestsQueue) {
  Simulation simulation;
  Resource cores(simulation, 2);
  for (int i = 0; i < 6; ++i) {
    cores.acquire(10.0, [] {});
  }
  // 6 jobs, 2 servers, 10 s each => 3 waves => 30 s.
  EXPECT_DOUBLE_EQ(simulation.run(), 30.0);
}

TEST(ResourceTest, BusyTimeAccumulates) {
  Simulation simulation;
  Resource cores(simulation, 2);
  cores.acquire(5.0, [] {});
  cores.acquire(7.0, [] {});
  simulation.run();
  EXPECT_DOUBLE_EQ(cores.busy_time(), 12.0);
}

TEST(ResourceTest, SingleServerSerializes) {
  Simulation simulation;
  Resource db(simulation, 1);
  std::vector<double> completion_times;
  for (int i = 0; i < 3; ++i) {
    db.acquire(2.0, [&] { completion_times.push_back(simulation.now()); });
  }
  simulation.run();
  EXPECT_EQ(completion_times, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(NetworkModelTest, LinearBcastGrowsWithPeers) {
  NetworkModel net;
  EXPECT_GT(net.bcast_linear_s(1 << 20, 16), net.bcast_linear_s(1 << 20, 2));
  EXPECT_DOUBLE_EQ(net.bcast_linear_s(1 << 20, 16),
                   8.0 * net.bcast_linear_s(1 << 20, 2));
}

TEST(NetworkModelTest, TreeBcastIsLogDepth) {
  NetworkModel net;
  const double t16 = net.bcast_tree_s(1 << 20, 16);
  const double t2 = net.bcast_tree_s(1 << 20, 2);
  EXPECT_DOUBLE_EQ(t16, 4.0 * t2);  // log2(16)=4 rounds vs 1
  EXPECT_DOUBLE_EQ(net.bcast_tree_s(1 << 20, 1), 0.0);
}

TEST(NetworkModelTest, TorrentNearlyFlatInRanks) {
  NetworkModel net;
  const double t4 = net.bcast_torrent_s(100 << 20, 4);
  const double t64 = net.bcast_torrent_s(100 << 20, 64);
  EXPECT_LT(t64, 1.2 * t4);  // flat-ish (Fig. 8 Spark/Dask curves)
}

TEST(MachineProfileTest, WranglerLogicalCoresAreWeakerThanComet) {
  // Wrangler exposes 48 hyper-threaded logical cores over 24 physical;
  // Comet's 24 are physical. Per logical core, Comet is stronger.
  const ClusterSpec c{comet(), 1};
  const ClusterSpec w{wrangler(), 1};
  const double comet_per_core =
      c.total_effective_cores() / static_cast<double>(c.total_cores());
  const double wrangler_per_core =
      w.total_effective_cores() / static_cast<double>(w.total_cores());
  EXPECT_GT(comet_per_core, wrangler_per_core);
  EXPECT_EQ(w.total_cores(), 48u);
  EXPECT_EQ(c.total_cores(), 24u);
}

TEST(MachineProfileTest, PartialNodeUsesPhysicalCoresFirst) {
  // 24 cores on one Wrangler node are 24 physical cores: no HT penalty.
  const ClusterSpec w24{wrangler(), 1, 24};
  EXPECT_NEAR(w24.total_effective_cores(), 24.0 * wrangler().core_speed,
              1e-9);
  // 32 cores on one node: 24 physical + 8 hyper-threads.
  const ClusterSpec w32{wrangler(), 1, 32};
  EXPECT_NEAR(w32.total_effective_cores(),
              (24.0 + 8.0 * 0.35) * wrangler().core_speed, 1e-9);
}

TEST(MachineProfileTest, ClusterForCoresRoundsUpNodes) {
  const auto spec = cluster_for_cores(comet(), 256);
  EXPECT_EQ(spec.nodes, 11u);  // ceil(256/24)
  EXPECT_EQ(spec.total_cores(), 256u);
  EXPECT_EQ(cluster_for_cores(comet(), 24).nodes, 1u);
  EXPECT_EQ(cluster_for_cores(comet(), 1).nodes, 1u);
  EXPECT_EQ(cluster_for_cores(comet(), 1).total_cores(), 1u);
}

TEST(MachineProfileTest, MemoryPerCoreIs128GBSplitAcrossUsedCores) {
  const ClusterSpec full{comet(), 4};
  EXPECT_NEAR(full.memory_per_core_bytes(), 128.0 * (1ull << 30) / 24.0,
              1.0);
  // Using 32 of Wrangler's 48 logical cores per node leaves 4 GB each.
  const ClusterSpec partial{wrangler(), 2, 64};
  EXPECT_NEAR(partial.memory_per_core_bytes(), 128.0 * (1ull << 30) / 32.0,
              1.0);
}

TEST(ElasticResourceTest, AddedServersDrainTheQueue) {
  Simulation simulation;
  Resource cores(simulation, 1);
  for (int i = 0; i < 4; ++i) cores.acquire(10.0, [] {});
  // Without growth: 4 serial jobs = 40 s. Add a server at t=10.
  simulation.after(10.0, [&] { cores.add_servers(1); });
  // t=0..10 job1; at t=10 two servers: job2+job3 parallel (10..20),
  // job4 at 20..30.
  EXPECT_DOUBLE_EQ(simulation.run(), 30.0);
}

TEST(ElasticResourceTest, RemovalIsLazyForBusyServers) {
  Simulation simulation;
  Resource cores(simulation, 2);
  for (int i = 0; i < 4; ++i) cores.acquire(10.0, [] {});
  // Remove one server at t=5: both are busy, so one retires at t=10.
  simulation.after(5.0, [&] { cores.remove_servers(1); });
  // Jobs 1,2 run 0..10; then a single server runs jobs 3 (10..20) and
  // 4 (20..30).
  EXPECT_DOUBLE_EQ(simulation.run(), 30.0);
}

TEST(ElasticResourceTest, IdleServersLeaveImmediately) {
  Simulation simulation;
  Resource cores(simulation, 3);
  cores.remove_servers(2);
  EXPECT_EQ(cores.free_servers(), 1u);
  for (int i = 0; i < 2; ++i) cores.acquire(5.0, [] {});
  EXPECT_DOUBLE_EQ(simulation.run(), 10.0);  // serialized on 1 server
}

TEST(ElasticResourceTest, AddCancelsPendingRemoval) {
  Simulation simulation;
  Resource cores(simulation, 1);
  cores.acquire(10.0, [] {});
  cores.acquire(10.0, [] {});
  simulation.after(1.0, [&] {
    cores.remove_servers(1);  // busy -> lazy
    cores.add_servers(1);     // cancels it
  });
  EXPECT_DOUBLE_EQ(simulation.run(), 20.0);  // server stays, 2 x 10 s
}

TEST(ResourceHoldTest, CancelWithdrawsQueuedAndRunningHolds) {
  Simulation simulation;
  Resource cores(simulation, 1);
  int fired = 0;
  const auto first = cores.acquire(10.0, [&] { ++fired; });
  const auto second = cores.acquire(10.0, [&] { ++fired; });
  cores.acquire(10.0, [&] { ++fired; });
  EXPECT_TRUE(cores.cancel(second));  // queued: leaves the queue
  EXPECT_EQ(cores.queued(), 1u);
  simulation.after(4.0, [&] {
    EXPECT_TRUE(cores.cancel(first));  // running: the server moves on now
    EXPECT_FALSE(cores.cancel(first));
  });
  EXPECT_DOUBLE_EQ(simulation.run(), 14.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(cores.busy_time(), 14.0);  // the cancelled 6 s refunded
}

TEST(ResourceHoldTest, RunningReportsPlacementUntilTheCallbackReturns) {
  Simulation simulation;
  Resource cores(simulation, 2);
  cores.acquire(1.0, [] {});
  Resource::HoldId id = 0;
  bool seen_in_callback = false;
  id = cores.acquire(2.0, [&] {
    const auto at = cores.running(id);
    seen_in_callback = at.has_value() && at->slot == 1 && at->start_s == 0.0;
  });
  EXPECT_EQ(cores.running(id)->slot, 1u);
  simulation.run();
  EXPECT_TRUE(seen_in_callback);
  EXPECT_FALSE(cores.running(id).has_value());
}

TEST(TraceTest, ResourceRecordsServiceIntervals) {
  Simulation simulation;
  Resource cores(simulation, 2);
  std::vector<ServiceInterval> trace;
  cores.set_trace(&trace);
  for (int i = 0; i < 3; ++i) cores.acquire(5.0, [] {});
  simulation.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace[0].end, 5.0);
  EXPECT_DOUBLE_EQ(trace[2].start, 5.0);  // queued job starts at t=5
  EXPECT_DOUBLE_EQ(trace[2].end, 10.0);
}

TEST(UtilizationTimelineTest, FullyBusyThenIdle) {
  // 2 servers, intervals covering [0,5) on both, horizon 10, 2 buckets:
  // first bucket fully busy, second idle.
  const std::vector<ServiceInterval> intervals = {{0, 5}, {0, 5}};
  const auto timeline = utilization_timeline(intervals, 2, 2, 10.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0], 1.0);
  EXPECT_DOUBLE_EQ(timeline[1], 0.0);
}

TEST(UtilizationTimelineTest, PartialOverlapSplitsAcrossBuckets) {
  // One server busy [2, 6) with horizon 8, 4 buckets of width 2:
  // buckets cover 0,1,1,0 of their width.
  const std::vector<ServiceInterval> intervals = {{2, 6}};
  const auto timeline = utilization_timeline(intervals, 1, 4, 8.0);
  EXPECT_DOUBLE_EQ(timeline[0], 0.0);
  EXPECT_DOUBLE_EQ(timeline[1], 1.0);
  EXPECT_DOUBLE_EQ(timeline[2], 1.0);
  EXPECT_DOUBLE_EQ(timeline[3], 0.0);
}

TEST(UtilizationTimelineTest, EmptyInputsAreSafe) {
  EXPECT_EQ(utilization_timeline({}, 4, 3).size(), 3u);
  const std::vector<ServiceInterval> intervals = {{0, 1}};
  EXPECT_EQ(utilization_timeline(intervals, 0, 3)[0], 0.0);
}

TEST(UtilizationTimelineTest, DefaultHorizonUsesLatestEnd) {
  const std::vector<ServiceInterval> intervals = {{0, 4}, {4, 8}};
  const auto timeline = utilization_timeline(intervals, 1, 2);
  EXPECT_DOUBLE_EQ(timeline[0], 1.0);
  EXPECT_DOUBLE_EQ(timeline[1], 1.0);
}

}  // namespace
}  // namespace mdtask::sim
