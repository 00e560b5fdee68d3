// A fixed-size thread pool used as the real execution backend for the
// task-parallel engines (Spark/Dask/RP mini-runtimes run their partitions
// here when executing for correctness rather than in simulated time).
// The workers are spawned once, in the constructor, and live until the
// pool is destroyed.
//
// Execution model (docs/TOPOLOGY.md): plain work stealing, one task per
// worker at a time. Each worker owns a cache-line-padded StealQueue; a
// job posted from inside a worker goes to that worker's deque and is
// popped LIFO (hot in its cache), jobs posted from non-worker threads
// land in a shared overflow queue that idle workers drain in batches,
// and a worker whose own deque runs dry steals FIFO from the others,
// sweeping them in rotation from its own index. Threads are left to the
// OS scheduler (no pinning). bench_pool gates the pool against a
// single-FIFO pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mdtask/common/steal_deque.h"
#include "mdtask/trace/tracer.h"

namespace mdtask {

/// Fixed-size work-stealing thread pool. Tasks are std::function<void()>;
/// submit() also offers a future-returning overload for result-bearing
/// jobs.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget job. Safe from multiple threads. From a
  /// worker of this pool the job goes to that worker's own deque
  /// (LIFO-hot); from any other thread it goes to the shared overflow
  /// queue.
  void post(std::function<void()> job);

  /// Enqueues a result-bearing job and returns its future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Blocks until every queued and running job has finished.
  void wait_idle();

  /// Worker threads (fixed at construction).
  std::size_t size() const noexcept { return slots_.size(); }

  /// Jobs enqueued (across worker deques and the overflow queue) but
  /// not yet picked up by a worker.
  std::size_t queued() const;

  /// Starts emitting spans to `tracer` under process track `pid`: one
  /// thread track per worker ("<worker_prefix>-<i>"), a "queue-wait"
  /// span from enqueue to pickup and a "job" span around each run.
  /// Call before submitting work (engines call it right after
  /// construction). Once a tracer is attached, every post() stamps its
  /// enqueue time unconditionally — even while the tracer is disabled —
  /// so a later set_enabled(true) sees correct queue-waits; only jobs
  /// posted before ANY tracer was attached carry no stamp (there is no
  /// time base to stamp them with), and those run without a queue-wait
  /// span. Tested in ThreadPoolTracingTest.
  void enable_tracing(trace::Tracer& tracer, std::uint32_t pid,
                      const std::string& worker_prefix = "worker");

  /// The calling worker thread's trace track, or nullptr when the
  /// caller is not a traced pool worker. Engines use this to put task
  /// spans on the executing worker's timeline.
  static const trace::Track* current_worker_track() noexcept;

  /// Cumulative work-stealing statistics: how often idle workers found
  /// work by stealing from another worker's deque or by grabbing from
  /// the shared overflow queue, and how long the successful victim
  /// sweeps took. When tracing is enabled every successful steal also
  /// samples `pool:steal*` counters on the thief's track, so trace
  /// summaries surface the same data (docs/OBSERVABILITY.md).
  struct StealCounters {
    std::uint64_t deque_steals = 0;    ///< jobs stolen from worker deques
    std::uint64_t overflow_grabs = 0;  ///< batched overflow-queue grabs
    std::uint64_t overflow_jobs = 0;   ///< jobs taken by those grabs
    /// Successful-sweep latency (sweep start to steal) across deque
    /// steals; total/max in microseconds.
    double steal_latency_total_us = 0.0;
    double steal_latency_max_us = 0.0;
  };

  /// Snapshot of the cumulative steal statistics.
  StealCounters steal_counters() const;

 private:
  struct Job {
    std::function<void()> fn;
    double enqueue_us = -1.0;  ///< tracer timestamp; -1 = not stamped
  };

  /// One worker's scheduling state, created in the constructor and kept
  /// for the pool's lifetime (index == worker index).
  struct Slot {
    StealQueue<Job> deque;
    std::atomic<bool> traced{false};
    trace::Track track{};  ///< written before traced is released
  };

  void enqueue(StealQueue<Job>& queue, std::function<void()> fn);
  void wake_one();
  void note_deque_steal(double latency_us, Slot* thief);
  void note_overflow_grab(std::size_t jobs, Slot* thief);
  void run_job(Job& job, Slot* slot);
  void worker_loop(std::size_t index);

  /// Index == worker index; filled before any worker starts and never
  /// resized, so workers and posters read it without a lock.
  std::vector<std::unique_ptr<Slot>> slots_;

  StealQueue<Job> overflow_;  ///< posts from non-worker threads

  std::mutex mu_;  ///< sleep/wake and idle handshakes
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  std::atomic<std::size_t> queued_{0};       ///< jobs waiting in queues
  std::atomic<std::size_t> outstanding_{0};  ///< queued + running

  std::vector<std::thread> workers_;  ///< joined at teardown

  /// Cumulative steal statistics (steal_counters()); latencies are
  /// kept in integer nanoseconds so the hot path stays fetch_add-only.
  std::atomic<std::uint64_t> deque_steals_{0};
  std::atomic<std::uint64_t> overflow_grabs_{0};
  std::atomic<std::uint64_t> overflow_jobs_{0};
  std::atomic<std::uint64_t> steal_latency_total_ns_{0};
  std::atomic<std::uint64_t> steal_latency_max_ns_{0};

  std::atomic<trace::Tracer*> tracer_{nullptr};
};

}  // namespace mdtask
