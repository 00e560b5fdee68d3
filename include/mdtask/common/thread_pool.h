// A resizable thread pool used as the real execution backend for the
// task-parallel engines (Spark/Dask/RP mini-runtimes run their partitions
// here when executing for correctness rather than in simulated time).
// Elastic membership events grow it with add_workers and shrink it with
// retire_workers (drain semantics: a retiring worker finishes its
// current job, stops taking new ones, and exits; its queued jobs are
// handed to the survivors).
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

/// Resizable work-stealing thread pool. Tasks are std::function<void()>;
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

  /// Elastic grow: spawns `count` additional workers, which start
  /// draining the queues immediately. If tracing is enabled they get
  /// their own "<worker_prefix>-<i>" tracks.
  void add_workers(std::size_t count);

  /// Elastic shrink with drain semantics: flags `count` workers
  /// (highest indices first — deterministic) to exit after their
  /// current job; their queued jobs are flushed to the overflow queue
  /// for the survivors. Clamped so at least one active worker remains.
  /// Returns the indices of the retired workers, which engines use to
  /// find the tasks that were in flight on departed executors.
  std::vector<std::size_t> retire_workers(std::size_t count);

  /// Active (non-retired) workers. Counts a retiring worker out as soon
  /// as it is flagged, even if it is still finishing its last job.
  std::size_t size() const;

  /// Jobs enqueued (across worker deques and the overflow queue) but
  /// not yet picked up by a worker. Together with busy() this is the
  /// observation an autoscale MetricsWindow samples.
  std::size_t queued() const;

  /// Workers currently executing a job (including retiring workers
  /// still finishing their last one).
  std::size_t busy() const;

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

  /// The calling worker thread's index in its pool, or -1 off-pool.
  static std::ptrdiff_t current_worker_index() noexcept;

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

  /// One worker's scheduling state. Slots are created once and kept for
  /// the pool's lifetime (index == worker index), so thieves can hold
  /// references across membership changes.
  struct Slot {
    StealQueue<Job> deque;
    std::atomic<bool> retired{false};
    std::atomic<bool> traced{false};
    trace::Track track{};  ///< written before traced is released
  };

  /// Immutable membership snapshot (index = worker index), swapped
  /// atomically under roster_mu_; workers refresh their copy when
  /// epoch_ changes.
  using Roster = std::vector<std::shared_ptr<Slot>>;

  std::shared_ptr<const Roster> snapshot_roster() const;
  void enqueue(StealQueue<Job>& queue, std::function<void()> fn);
  void wake_one();
  void note_deque_steal(double latency_us, Slot* thief);
  void note_overflow_grab(std::size_t jobs, Slot* thief);
  void run_job(Job& job, Slot* slot);
  void worker_loop(std::size_t index);

  mutable std::mutex roster_mu_;       ///< guards roster_ swaps only
  std::shared_ptr<const Roster> roster_;
  std::atomic<std::uint64_t> epoch_{0};  ///< bumped after roster swaps

  StealQueue<Job> overflow_;  ///< non-worker posts, retiree drains

  mutable std::mutex mu_;  ///< sleep/wake handshake + membership calls
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::size_t alive_ = 0;  ///< workers not flagged to retire; under mu_

  std::atomic<std::size_t> queued_{0};       ///< jobs waiting in queues
  std::atomic<std::size_t> active_{0};       ///< jobs being executed
  std::atomic<std::size_t> outstanding_{0};  ///< queued + active

  std::vector<std::thread> workers_;  ///< under mu_; joined at teardown

  /// Cumulative steal statistics (steal_counters()); latencies are
  /// kept in integer nanoseconds so the hot path stays fetch_add-only.
  std::atomic<std::uint64_t> deque_steals_{0};
  std::atomic<std::uint64_t> overflow_grabs_{0};
  std::atomic<std::uint64_t> overflow_jobs_{0};
  std::atomic<std::uint64_t> steal_latency_total_ns_{0};
  std::atomic<std::uint64_t> steal_latency_max_ns_{0};

  std::atomic<trace::Tracer*> tracer_{nullptr};
  std::uint32_t trace_pid_ = 0;       ///< under mu_
  std::string worker_prefix_ = "worker";  ///< under mu_
};

}  // namespace mdtask
