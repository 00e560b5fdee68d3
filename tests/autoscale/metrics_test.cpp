// MetricsWindow: the observation side of the autoscale control loop —
// nearest-rank percentiles, ring-buffer aging, and coherent snapshots.
#include "mdtask/autoscale/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mdtask::autoscale {
namespace {

TEST(DurationPercentileTest, EmptySampleSetIsZero) {
  EXPECT_DOUBLE_EQ(duration_percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(duration_percentile({}, 99.0), 0.0);
}

TEST(DurationPercentileTest, NearestRankOverUniformSamples) {
  // 1..100, deliberately unsorted: percentiles sort a copy.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(duration_percentile(samples, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(duration_percentile(samples, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(duration_percentile(samples, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(duration_percentile(samples, 100.0), 100.0);
}

TEST(DurationPercentileTest, SingleSampleIsEveryPercentile) {
  EXPECT_DOUBLE_EQ(duration_percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(duration_percentile({7.0}, 99.0), 7.0);
}

TEST(MetricsWindowTest, EmptyWindowSnapshotsToZeros) {
  MetricsWindow window;
  const MetricsSnapshot snap = window.snapshot(3.5);
  EXPECT_DOUBLE_EQ(snap.now_s, 3.5);
  EXPECT_EQ(snap.pool_size, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_DOUBLE_EQ(snap.utilization, 0.0);
  EXPECT_DOUBLE_EQ(snap.p50_s, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99_s, 0.0);
}

TEST(MetricsWindowTest, SnapshotReflectsLatestPoolObservation) {
  MetricsWindow window;
  window.observe_pool(8, 2, 5);
  window.observe_pool(4, 3, 1);  // latest wins
  const MetricsSnapshot snap = window.snapshot();
  EXPECT_EQ(snap.pool_size, 4u);
  EXPECT_EQ(snap.busy, 3u);
  EXPECT_EQ(snap.queue_depth, 1u);
  EXPECT_DOUBLE_EQ(snap.utilization, 0.75);
}

TEST(MetricsWindowTest, UtilizationIsClampedToOne) {
  MetricsWindow window;
  // A racy observation can briefly report busy > pool (e.g. mid-shrink).
  window.observe_pool(2, 5, 0);
  EXPECT_DOUBLE_EQ(window.snapshot().utilization, 1.0);
}

TEST(MetricsWindowTest, PercentilesOverRecordedDurations) {
  MetricsWindow window;
  for (int i = 1; i <= 100; ++i) {
    window.record_task_duration(static_cast<double>(i));
  }
  const MetricsSnapshot snap = window.snapshot();
  EXPECT_EQ(snap.completed, 100u);
  EXPECT_DOUBLE_EQ(snap.p50_s, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95_s, 95.0);
  EXPECT_DOUBLE_EQ(snap.p99_s, 99.0);
}

TEST(MetricsWindowTest, RingBufferAgesOutOldDurations) {
  MetricsWindow window(4);
  for (int i = 1; i <= 8; ++i) {
    window.record_task_duration(static_cast<double>(i));
  }
  const MetricsSnapshot snap = window.snapshot();
  // Window holds {5, 6, 7, 8}; completed counts every recording.
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_DOUBLE_EQ(snap.p50_s, 6.0);
  EXPECT_DOUBLE_EQ(snap.p99_s, 8.0);
}

TEST(MetricsWindowTest, ZeroCapacityIsPromotedToOne) {
  MetricsWindow window(0);
  window.record_task_duration(1.0);
  window.record_task_duration(9.0);
  EXPECT_DOUBLE_EQ(window.snapshot().p50_s, 9.0);  // only the latest kept
  EXPECT_EQ(window.snapshot().completed, 2u);
}

TEST(MetricsWindowTest, ResetForgetsEverything) {
  MetricsWindow window;
  window.observe_pool(4, 4, 9);
  window.record_task_duration(3.0);
  window.reset();
  const MetricsSnapshot snap = window.snapshot();
  EXPECT_EQ(snap.pool_size, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_DOUBLE_EQ(snap.p50_s, 0.0);
}

TEST(MetricsWindowTest, ConcurrentProducersAreCountedExactly) {
  MetricsWindow window(64);
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&window] {
      for (int i = 0; i < 1000; ++i) window.record_task_duration(0.001);
    });
  }
  for (auto& thread : producers) thread.join();
  EXPECT_EQ(window.snapshot().completed, 4000u);
  EXPECT_DOUBLE_EQ(window.snapshot().p99_s, 0.001);
}

}  // namespace
}  // namespace mdtask::autoscale
