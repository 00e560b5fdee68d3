// Tests for the topology-aware work-stealing internals of ThreadPool:
// grouped/shared routing, elastic membership races, contended external
// posts (the notify-after-unlock path), and the late-enable tracing
// stamp guarantee. The drain/retire and tracing CONTRACT tests live in
// thread_pool_test.cpp; these exercise what the stealing rebuild added.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/topo/cpu_topology.h"
#include "mdtask/trace/tracer.h"

namespace mdtask {
namespace {

TEST(ThreadPoolTopoTest, ExplicitTopologyDrivesPlacementAndGroups) {
  // 8 logical = 4 cores x 2 SMT, 2 cores per L2 -> 2 L2 domains.
  ThreadPool pool(4, topo::CpuTopology::synthetic(8, 2, 2), false);
  EXPECT_FALSE(pool.pinned());
  EXPECT_EQ(pool.topology().logical_cpus(), 8u);
  EXPECT_EQ(pool.locality_groups(), 2u);
  // The first 4 placements cover 4 distinct physical cores.
  std::set<int> cores;
  for (std::size_t i = 0; i < 4; ++i) {
    const int cpu = pool.placement_cpu(i);
    ASSERT_GE(cpu, 0);
    cores.insert(pool.topology().cpu(static_cast<std::size_t>(cpu)).core);
  }
  EXPECT_EQ(cores.size(), 4u);
}

TEST(ThreadPoolTopoTest, GroupedPostsRunEverythingOnce) {
  ThreadPool pool(4, topo::CpuTopology::synthetic(4, 1, 2), false);
  constexpr int kGroups = 8;
  constexpr int kMembers = 4;
  std::atomic<int> ran{0};
  for (int g = 0; g < kGroups; ++g) {
    for (int m = 0; m < kMembers; ++m) {
      pool.post_grouped(static_cast<std::uint64_t>(g),
                        static_cast<std::uint64_t>(m),
                        [&ran] { ran.fetch_add(1); });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kGroups * kMembers);
}

TEST(ThreadPoolTopoTest, SubmitGroupedReturnsResults) {
  ThreadPool pool(2, topo::CpuTopology::synthetic(2), false);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit_grouped(
        static_cast<std::uint64_t>(i % 4), static_cast<std::uint64_t>(i),
        [i] { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPoolTopoTest, PostSharedFromWorkerIsPickedUpByIdleWorkers) {
  // A busy worker posting via post_shared must NOT keep the job in its
  // own deque: with the poster blocked, only another worker can run it.
  ThreadPool pool(2, topo::CpuTopology::synthetic(2), false);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> release{false};
  pool.post([&] {
    pool.post_shared([&inner_ran] { inner_ran.store(true); });
    // Block this worker until the other worker has run the shared job.
    while (!release.load()) std::this_thread::yield();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!inner_ran.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(inner_ran.load());
  release.store(true);
  pool.wait_idle();
}

// Satellite: post() from many non-worker threads at once. The wake path
// (notify AFTER unlocking mu_) must neither lose wakeups nor deadlock.
TEST(ThreadPoolTopoTest, ContendedExternalPostsRunEverything) {
  ThreadPool pool(4, topo::CpuTopology::synthetic(4), false);
  constexpr int kPosters = 8;
  constexpr int kJobsEach = 500;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  posters.reserve(kPosters);
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&pool, &ran] {
      for (int j = 0; j < kJobsEach; ++j) {
        pool.post([&ran] { ran.fetch_add(1); });
      }
    });
  }
  for (auto& t : posters) t.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kPosters * kJobsEach);
  EXPECT_EQ(pool.queued(), 0u);
}

// Satellite: retire_workers racing a full queue — the retiring workers'
// queued jobs must be flushed to survivors, and every job must run.
TEST(ThreadPoolTopoTest, RetireWorkersWithFullQueueRunsEverything) {
  ThreadPool pool(8, topo::CpuTopology::synthetic(8), false);
  constexpr int kJobs = 4000;
  std::atomic<int> ran{0};
  std::thread retirer;
  {
    // Seed jobs from a worker so they land in per-worker deques (the
    // path a retiree must drain), then retire concurrently.
    for (int j = 0; j < kJobs; ++j) {
      pool.post([&ran, &pool, j] {
        ran.fetch_add(1);
        if (j % 16 == 0) {
          pool.post([&ran] { ran.fetch_add(1); });
        }
      });
    }
    retirer = std::thread([&pool] {
      for (int i = 0; i < 3; ++i) {
        pool.retire_workers(2);
        std::this_thread::yield();
      }
    });
  }
  retirer.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kJobs + kJobs / 16);
  EXPECT_EQ(pool.size(), 2u);  // 8 - 3*2
}

// Satellite: concurrent add_workers while jobs flow and while another
// thread retires. Membership swaps are serialized under mu_; no job may
// be lost and the pool must end at the expected size.
TEST(ThreadPoolTopoTest, ConcurrentAddAndRetireKeepsAllJobs) {
  // Three starting workers keep both retires above the one-worker clamp
  // of retire_workers whatever the interleaving with the grower.
  ThreadPool pool(3, topo::CpuTopology::synthetic(4), false);
  constexpr int kJobs = 2000;
  std::atomic<int> ran{0};
  std::thread poster([&pool, &ran] {
    for (int j = 0; j < kJobs; ++j) {
      pool.post([&ran] { ran.fetch_add(1); });
    }
  });
  std::thread grower([&pool] {
    for (int i = 0; i < 4; ++i) {
      pool.add_workers(1);
      std::this_thread::yield();
    }
  });
  std::thread shrinker([&pool] {
    for (int i = 0; i < 2; ++i) {
      pool.retire_workers(1);
      std::this_thread::yield();
    }
  });
  poster.join();
  grower.join();
  shrinker.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(pool.size(), 5u);  // 3 + 4 - 2
}

TEST(ThreadPoolTopoTest, WorkersAddedAfterEnableTracingGetTracks) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(1, topo::CpuTopology::synthetic(4), false);
  pool.enable_tracing(tracer, 7, "w");
  pool.add_workers(2);
  std::atomic<int> ran{0};
  for (int j = 0; j < 64; ++j) {
    pool.post([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
  // Track names w-0..w-2 all registered.
  std::set<std::string> names;
  for (const auto& tn : tracer.track_names()) {
    if (!tn.is_process) names.insert(tn.name);
  }
  EXPECT_TRUE(names.count("w-0"));
  EXPECT_TRUE(names.count("w-1"));
  EXPECT_TRUE(names.count("w-2"));
}

// Satellite: the late-enable gap. Once a tracer is ATTACHED, posts stamp
// their enqueue time even while the tracer is disabled, so flipping
// set_enabled(true) mid-flight yields correct queue-wait spans for jobs
// posted during the disabled window.
TEST(ThreadPoolTracingTest, JobsPostedWhileDisabledGetQueueWaitsAfterEnable) {
  trace::Tracer tracer;  // disabled at attach time
  ThreadPool pool(1, topo::CpuTopology::synthetic(1), false);
  pool.enable_tracing(tracer, 1, "w");

  // Occupy the single worker so posted jobs sit queued across the
  // enable flip; wait until it is actually running so its own (still
  // disabled) pickup cannot race the flip below.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.post([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  constexpr int kJobs = 8;
  for (int j = 0; j < kJobs; ++j) {
    pool.post([] {});  // stamped: tracer attached, though disabled
  }
  tracer.set_enabled(true);
  release.store(true);
  pool.wait_idle();

  int queue_waits = 0;
  for (const auto& e : tracer.events()) {
    if (e.name == "queue-wait") ++queue_waits;
  }
  EXPECT_EQ(queue_waits, kJobs);
}

TEST(ThreadPoolTracingTest, JobsPostedBeforeAnyTracerAttachCarryNoStamp) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(1, topo::CpuTopology::synthetic(1), false);

  std::atomic<bool> release{false};
  pool.post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.post([] {});  // no tracer attached yet: no time base, no stamp
  pool.enable_tracing(tracer, 1, "w");
  release.store(true);
  pool.wait_idle();

  for (const auto& e : tracer.events()) {
    EXPECT_NE(e.name, "queue-wait")
        << "pre-attach job must not fabricate a queue-wait";
  }
}

TEST(ThreadPoolTopoTest, PinnedPoolOnHostTopologyStillRunsJobs) {
  // Default ctor path: host topology + MDTASK_PIN_THREADS. Whatever the
  // machine shape (1-CPU CI container included), jobs must run and the
  // accessors must be coherent.
  ThreadPool pool(3);
  EXPECT_EQ(pool.topology().logical_cpus(),
            topo::CpuTopology::host().logical_cpus());
  std::atomic<int> ran{0};
  for (int j = 0; j < 128; ++j) {
    pool.post([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 128);
  EXPECT_GE(pool.locality_groups(), 1u);
}

}  // namespace
}  // namespace mdtask
