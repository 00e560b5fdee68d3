#include "mdtask/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mdtask/trace/tracer.h"

namespace mdtask {
namespace {

TEST(ThreadPoolTest, RunsAllPostedJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructionDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.post([&count] { count.fetch_add(1); });
    }
  }  // destructor joins workers
  EXPECT_EQ(count.load(), 50);
}

// ---- stress tests (run under TSan in CI) ----

TEST(ThreadPoolStressTest, OversubscribedManySmallJobs) {
  // Far more threads than cores and far more jobs than threads: the
  // queue/condvar handoff must neither drop nor double-run work.
  ThreadPool pool(32);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kJobs = 20000;
  for (int i = 0; i < kJobs; ++i) {
    pool.post([&sum, i] {
      sum.fetch_add(static_cast<std::uint64_t>(i), std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kJobs) * (kJobs - 1) / 2);
}

TEST(ThreadPoolStressTest, SubmitFromWorkerDoesNotDeadlock) {
  // Jobs that post follow-up jobs from inside a worker (the dask engine
  // does this when a task's dependents become ready). wait_idle must
  // account for the transitively spawned work.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kRoots = 64;
  constexpr int kDepth = 50;
  std::function<void(int)> chain = [&](int remaining) {
    count.fetch_add(1, std::memory_order_relaxed);
    if (remaining > 0) pool.post([&chain, remaining] { chain(remaining - 1); });
  };
  for (int i = 0; i < kRoots; ++i) {
    pool.post([&chain] { chain(kDepth); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), kRoots * (kDepth + 1));
}

TEST(ThreadPoolStressTest, DestructionWithDeepQueueRunsEverything) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 5000; ++i) {
      pool.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor races job pickup: queued work must still drain.
  }
  EXPECT_EQ(count.load(), 5000);
}

TEST(ThreadPoolStressTest, TracedRunRecordsEveryJobAndClosesAllSpans) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kJobs = 2000;
  {
    ThreadPool pool(8);
    pool.enable_tracing(tracer, tracer.process("pool"), "worker");
    std::atomic<int> count{0};
    for (int i = 0; i < kJobs; ++i) {
      pool.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), kJobs);
    // wait_idle orders after every job span's closure (the span is
    // destroyed before the worker's active-- handshake).
    EXPECT_EQ(tracer.open_spans(), 0);
  }
  int job_spans = 0;
  int queue_waits = 0;
  for (const auto& e : tracer.events()) {
    if (e.name == "job") ++job_spans;
    if (e.name == "queue-wait") ++queue_waits;
  }
  EXPECT_EQ(job_spans, kJobs);
  EXPECT_EQ(queue_waits, kJobs);
}

TEST(ThreadPoolStressTest, TracedJobThatThrowsThroughSubmitClosesSpan) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(2);
  pool.enable_tracing(tracer, tracer.process("pool"));
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  pool.wait_idle();
  EXPECT_EQ(tracer.open_spans(), 0);
}

TEST(ThreadPoolStressTest, CurrentWorkerTrackVisibleInsideTracedJobs) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t pid = tracer.process("pool");
  ThreadPool pool(3);
  pool.enable_tracing(tracer, pid, "executor");

  // Outside any worker thread there is no worker identity.
  EXPECT_EQ(ThreadPool::current_worker_track(), nullptr);

  std::atomic<int> with_track{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&with_track, pid] {
      const trace::Track* track = ThreadPool::current_worker_track();
      if (track != nullptr && track->pid == pid) {
        with_track.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(with_track.load(), 100);
}

}  // namespace
}  // namespace mdtask
