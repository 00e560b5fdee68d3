// Tests for the work-stealing internals of ThreadPool: an idle worker
// stealing from a busy one, contended external posts (the
// notify-after-unlock path), and the late-enable tracing stamp
// guarantee. The drain and tracing CONTRACT tests live in
// thread_pool_test.cpp; these exercise the stealing layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/trace/tracer.h"

namespace mdtask {
namespace {

TEST(ThreadPoolTopoTest, IdleWorkerStealsJobPostedByBusyWorker) {
  // A busy worker's post lands in its own deque; with the poster
  // blocked, only the other worker, stealing it, can run the job.
  ThreadPool pool(2);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> release{false};
  pool.post([&] {
    pool.post([&inner_ran] { inner_ran.store(true); });
    // Block this worker until the other worker has run the posted job.
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
  ThreadPool pool(4);
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
}

// Satellite: the late-enable gap. Once a tracer is ATTACHED, posts stamp
// their enqueue time even while the tracer is disabled, so flipping
// set_enabled(true) mid-flight yields correct queue-wait spans for jobs
// posted during the disabled window.
TEST(ThreadPoolTracingTest, JobsPostedWhileDisabledGetQueueWaitsAfterEnable) {
  trace::Tracer tracer;  // disabled at attach time
  ThreadPool pool(1);
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
  ThreadPool pool(1);

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

}  // namespace
}  // namespace mdtask
