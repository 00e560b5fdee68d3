// Tests for the ThreadPool steal counters: forced deque
// stealing is counted, external posts count as overflow grabs, and with
// tracing enabled the same data surfaces as `pool:steal*` counters in
// trace summaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "mdtask/common/thread_pool.h"
#include "mdtask/trace/summary.h"
#include "mdtask/trace/tracer.h"

namespace mdtask {
namespace {

// Runs a job on some worker that posts kChildren jobs into its OWN
// deque and then blocks until every child ran. With only one other
// worker, the children can only run by being stolen from that deque.
int force_deque_steals(ThreadPool& pool) {
  constexpr int kChildren = 64;
  std::atomic<int> ran{0};
  pool.post([&pool, &ran] {  // non-worker post: the overflow queue
    for (int j = 0; j < kChildren; ++j) {
      pool.post([&ran] { ran.fetch_add(1); });
    }
    while (ran.load() < kChildren) std::this_thread::yield();
  });
  pool.wait_idle();
  return ran.load();
}

TEST(ThreadPoolStealCountersTest, DequeStealsAreCounted) {
  ThreadPool pool(2);
  ASSERT_EQ(force_deque_steals(pool), 64);
  const ThreadPool::StealCounters c = pool.steal_counters();
  EXPECT_GT(c.deque_steals, 0u);
}

TEST(ThreadPoolStealCountersTest, ExternalPostsCountAsOverflowGrabs) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int j = 0; j < 256; ++j) {
    pool.post([&ran] { ran.fetch_add(1); });  // non-worker -> overflow
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 256);
  const ThreadPool::StealCounters c = pool.steal_counters();
  EXPECT_GT(c.overflow_grabs, 0u);
  EXPECT_GE(c.overflow_jobs, c.overflow_grabs);
}

TEST(ThreadPoolStealCountersTest, CountersStartAtZero) {
  ThreadPool pool(1);
  const ThreadPool::StealCounters c = pool.steal_counters();
  EXPECT_EQ(c.deque_steals, 0u);
  EXPECT_EQ(c.overflow_grabs, 0u);
  EXPECT_EQ(c.overflow_jobs, 0u);
}

TEST(ThreadPoolStealCountersTest, StealsSurfaceInTraceSummary) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(2);
  pool.enable_tracing(tracer, 1, "w");
  ASSERT_EQ(force_deque_steals(pool), 64);
  const ThreadPool::StealCounters c = pool.steal_counters();
  ASSERT_GT(c.deque_steals, 0u);

  const trace::TraceSummary summary = trace::summarize(tracer);
  bool saw_steal = false;
  bool saw_latency = false;
  for (const auto& counter : summary.counters) {
    if (counter.name == "pool:steal") {
      saw_steal = true;
      EXPECT_GT(counter.samples, 0u);
      // Cumulative series: the max sample equals the final tally.
      EXPECT_EQ(counter.max, static_cast<double>(c.deque_steals));
    }
    if (counter.name == "pool:steal-latency-us") {
      saw_latency = true;
      EXPECT_GT(counter.samples, 0u);
      EXPECT_GE(counter.max, 0.0);
    }
  }
  EXPECT_TRUE(saw_steal);
  EXPECT_TRUE(saw_latency);
}

TEST(ThreadPoolStealCountersTest, OverflowGrabsSurfaceInTraceSummary) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(2);
  pool.enable_tracing(tracer, 1, "w");
  std::atomic<int> ran{0};
  for (int j = 0; j < 256; ++j) {
    pool.post([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  const trace::TraceSummary summary = trace::summarize(tracer);
  bool saw = false;
  for (const auto& counter : summary.counters) {
    if (counter.name == "pool:steal-overflow") {
      saw = true;
      EXPECT_GT(counter.samples, 0u);
    }
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace mdtask
