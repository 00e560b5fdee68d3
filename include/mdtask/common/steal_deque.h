// Cache-line-padded work-stealing queue: the per-worker building block
// of the work-stealing ThreadPool (docs/TOPOLOGY.md).
//
// Each pool worker owns one StealQueue. The owner pushes and pops at
// the BACK (LIFO: the job it just spawned is the one whose data is
// still hot in its cache); thieves take from the FRONT (FIFO: the
// oldest job is the one least likely to be cache-hot for the owner, so
// stealing it costs the least locality). A shared overflow instance
// additionally serves batched grabs, amortizing one lock acquisition
// over many externally posted jobs.
//
// Implementation: a mutex-guarded deque per instance, fronted by an
// atomic size. The point of the structure is not a lock-free pop (the
// jobs here are whole engine partitions or kernel tiles, far heavier
// than a mutex op) but that the lock is PER WORKER — posts and pops on
// different workers touch different mutexes on different cache lines —
// and that the EMPTY case never locks at all: a thief sweeping victims
// reads one relaxed atomic per empty queue, so an idle pool costs loads,
// not lock traffic. The alignas(64) keeps neighbouring queues in a slot
// array off each other's cache lines.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace mdtask {

template <typename T>
class alignas(64) StealQueue {
 public:
  StealQueue() = default;
  StealQueue(const StealQueue&) = delete;
  StealQueue& operator=(const StealQueue&) = delete;

  /// Push at the back: the owner, or any poster on the shared overflow
  /// queue.
  void push(T value) {
    std::lock_guard lk(mu_);
    items_.push_back(std::move(value));
    count_.store(items_.size(), std::memory_order_release);
  }

  /// Appends items_[from..] of `batch` at the back under ONE lock: the
  /// overflow-grab re-push path.
  void push_batch(std::vector<T>& batch, std::size_t from) {
    if (from >= batch.size()) return;
    std::lock_guard lk(mu_);
    for (std::size_t i = from; i < batch.size(); ++i) {
      items_.push_back(std::move(batch[i]));
    }
    count_.store(items_.size(), std::memory_order_release);
  }

  /// Owner pop: newest first (LIFO). False when empty. The empty case
  /// is a single atomic load — no lock.
  bool pop(T& out) {
    if (count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard lk(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.back());
    items_.pop_back();
    count_.store(items_.size(), std::memory_order_release);
    return true;
  }

  /// Thief steal: oldest first (FIFO). False when empty (lock-free).
  bool steal(T& out) {
    if (count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard lk(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    count_.store(items_.size(), std::memory_order_release);
    return true;
  }

  /// Batched front grab: moves up to `max` oldest items into `out`
  /// (appended), returning how many were taken. One lock acquisition
  /// for the whole batch — the overflow-drain fast path.
  std::size_t steal_batch(std::vector<T>& out, std::size_t max) {
    if (count_.load(std::memory_order_acquire) == 0) return 0;
    std::lock_guard lk(mu_);
    std::size_t taken = 0;
    while (taken < max && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    count_.store(items_.size(), std::memory_order_release);
    return taken;
  }

  /// Drains everything into `out` (appended, oldest first).
  std::size_t drain(std::vector<T>& out) {
    return steal_batch(out, ~std::size_t{0});
  }

  /// Advisory size: exact after the last completed operation, stale
  /// only while another thread is mid-operation.
  std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::deque<T> items_;
  std::atomic<std::size_t> count_{0};
};

}  // namespace mdtask
