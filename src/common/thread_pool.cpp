#include "mdtask/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

namespace mdtask {
namespace {

// Per-thread identity of pool workers. A worker copies its Track here
// before running each traced job, so engine code executing inside the
// job can place task spans on the worker's timeline via
// current_worker_track() without touching the pool.
thread_local trace::Track tls_worker_track{};
thread_local bool tls_worker_traced = false;
thread_local ThreadPool* tls_worker_pool = nullptr;
// Points at the worker's own Slot (a private pool type, hence void*).
thread_local void* tls_worker_slot = nullptr;

/// Jobs moved from the overflow queue into a worker's deque per grab:
/// one lock acquisition amortized over the batch. Small enough that a
/// burst still spreads across workers via stealing.
constexpr std::size_t kOverflowBatch = 16;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  slots_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(StealQueue<Job>& queue,
                         std::function<void()> fn) {
  Job job;
  job.fn = std::move(fn);
  // Stamp unconditionally once any tracer has ever been attached (even
  // while disabled): enabling tracing mid-run then must not produce
  // bogus queue-waits for jobs already in flight. See enable_tracing.
  if (trace::Tracer* tracer = tracer_.load(std::memory_order_acquire)) {
    job.enqueue_us = tracer->now_us();
  }
  outstanding_.fetch_add(1, std::memory_order_seq_cst);
  // queued_ is bumped BEFORE the push: a worker that observes 0 here
  // inside its sleep predicate can only have done so before this post
  // began, and then the wake below covers it.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  queue.push(std::move(job));
  wake_one();
}

void ThreadPool::wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section orders this wake against a worker that is
    // between its predicate check and cv_.wait; the notify itself is
    // issued with mu_ released so the woken worker never runs straight
    // into a held lock.
    { std::lock_guard lk(mu_); }
    cv_.notify_one();
  }
}

void ThreadPool::post(std::function<void()> job) {
  Slot* local = tls_worker_pool == this
                    ? static_cast<Slot*>(tls_worker_slot)
                    : nullptr;
  if (local != nullptr) {
    enqueue(local->deque, std::move(job));
    return;
  }
  enqueue(overflow_, std::move(job));
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] {
    return outstanding_.load(std::memory_order_seq_cst) == 0;
  });
}

void ThreadPool::enable_tracing(trace::Tracer& tracer, std::uint32_t pid,
                                const std::string& worker_prefix) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = *slots_[i];
    slot.track =
        tracer.thread(pid, worker_prefix + "-" + std::to_string(i));
    slot.traced.store(true, std::memory_order_release);
  }
  tracer_.store(&tracer, std::memory_order_release);
}

std::size_t ThreadPool::queued() const {
  return queued_.load(std::memory_order_seq_cst);
}

ThreadPool::StealCounters ThreadPool::steal_counters() const {
  StealCounters out;
  out.deque_steals = deque_steals_.load(std::memory_order_relaxed);
  out.overflow_grabs = overflow_grabs_.load(std::memory_order_relaxed);
  out.overflow_jobs = overflow_jobs_.load(std::memory_order_relaxed);
  out.steal_latency_total_us =
      static_cast<double>(
          steal_latency_total_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  out.steal_latency_max_us =
      static_cast<double>(
          steal_latency_max_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  return out;
}

void ThreadPool::note_deque_steal(double latency_us, Slot* thief) {
  const std::uint64_t total =
      deque_steals_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto latency_ns =
      static_cast<std::uint64_t>(std::max(0.0, latency_us) * 1000.0);
  steal_latency_total_ns_.fetch_add(latency_ns, std::memory_order_relaxed);
  std::uint64_t prev_max =
      steal_latency_max_ns_.load(std::memory_order_relaxed);
  while (prev_max < latency_ns &&
         !steal_latency_max_ns_.compare_exchange_weak(
             prev_max, latency_ns, std::memory_order_relaxed)) {
  }
  trace::Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr && tracer->enabled() &&
      thief->traced.load(std::memory_order_acquire)) {
    const double now = tracer->now_us();
    tracer->counter(thief->track, "pool:steal", now,
                    static_cast<double>(total));
    tracer->counter(thief->track, "pool:steal-latency-us", now, latency_us);
  }
}

void ThreadPool::note_overflow_grab(std::size_t jobs, Slot* thief) {
  overflow_grabs_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t total =
      overflow_jobs_.fetch_add(jobs, std::memory_order_relaxed) + jobs;
  trace::Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr && tracer->enabled() &&
      thief->traced.load(std::memory_order_acquire)) {
    tracer->counter(thief->track, "pool:steal-overflow", tracer->now_us(),
                    static_cast<double>(total));
  }
}

const trace::Track* ThreadPool::current_worker_track() noexcept {
  return tls_worker_traced ? &tls_worker_track : nullptr;
}

void ThreadPool::run_job(Job& job, Slot* slot) {
  trace::Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr && slot->traced.load(std::memory_order_acquire)) {
    tls_worker_track = slot->track;
    tls_worker_traced = true;
  }
  if (tracer != nullptr && tracer->enabled() && tls_worker_traced) {
    if (job.enqueue_us >= 0.0) {
      const double picked_us = tracer->now_us();
      tracer->complete(tls_worker_track, "queue-wait", "queue",
                       job.enqueue_us,
                       std::max(0.0, picked_us - job.enqueue_us));
    }
    {
      MDTASK_SCOPED_SPAN(job_span, *tracer, tls_worker_track, "job",
                         "pool");
      job.fn();
    }
  } else {
    job.fn();
  }
  if (outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Last outstanding job: release wait_idle callers. The empty
    // critical section orders against a waiter between its predicate
    // check and the wait.
    { std::lock_guard lk(mu_); }
    idle_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_pool = this;
  Slot* const slot = slots_[index].get();
  tls_worker_slot = slot;
  std::vector<Job> batch;

  for (;;) {
    Job job;
    bool got = slot->deque.pop(job);
    if (!got) {
      // Batched overflow grab: run the oldest, keep the rest local
      // (still "queued" — thieves may take them back).
      batch.clear();
      if (overflow_.steal_batch(batch, kOverflowBatch) > 0) {
        got = true;
        const std::size_t grabbed = batch.size();
        job = std::move(batch.front());
        // One lock for the whole re-push; the jobs stay stealable.
        slot->deque.push_batch(batch, 1);
        note_overflow_grab(grabbed, slot);
      }
    }
    if (!got) {
      // Steal FIFO from the other workers, swept in rotation from this
      // worker's own index so thieves spread over different victims.
      const auto sweep_start = std::chrono::steady_clock::now();
      const std::size_t n = slots_.size();
      for (std::size_t k = 1; k < n; ++k) {
        if (slots_[(index + k) % n]->deque.steal(job)) {
          got = true;
          note_deque_steal(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() -
                               sweep_start)
                               .count(),
                           slot);
          break;
        }
      }
    }
    if (got) {
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      run_job(job, slot);
      continue;
    }

    // Nothing anywhere: sleep until a post or shutdown. The queued_ term of the predicate plus the poster's
    // fenced wake makes a lost wakeup impossible (see enqueue).
    std::unique_lock lk(mu_);
    if (stop_.load(std::memory_order_seq_cst) &&
        queued_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_seq_cst) ||
             queued_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace mdtask
