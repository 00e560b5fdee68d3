// Mini-Dask: a delayed task graph with a dynamic dependency-driven
// distributed scheduler, plus the Bag collection API (Sec. 3.2).
//
// Semantics reproduced from Dask:
//  * delayed() wraps a function call into a graph node; nothing runs
//    until compute()/get() is called on a future.
//  * The scheduler is dynamic: a task becomes runnable the moment its
//    inputs finish — there are no stage barriers (contrast with Spark's
//    stage-oriented DAGScheduler, Sec. 3.4 "Scheduling").
//  * Bag<T> provides map/filter/fold over partitioned collections.
//
// Tasks run for real on worker threads; the client records task counts
// and data-movement volumes for the comparison benches. A configurable
// per-worker memory limit reproduces the paper's Dask worker restarts at
// 95% memory (Sec. 4.3.3).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mdtask/engines/core.h"
#include "mdtask/fault/injector.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::dask {

struct DaskConfig {
  std::size_t workers = 4;            ///< worker threads
  std::uint64_t task_memory_limit = 0;  ///< simulated limit (0 = unlimited)
  /// Number of times a task killed by the memory guard is retried after a
  /// simulated worker restart before the whole computation fails
  /// (distributed's allowed-failures behaviour).
  int allowed_failures = 3;
  /// Optional fault-injection plan (not owned; must outlive the client).
  /// OOM kills and node crashes become simulated worker restarts with the
  /// task rescheduled; transient faults are plain retries with backoff.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional sink for fault/recovery events (not owned).
  fault::RecoveryLog* recovery_log = nullptr;
};

class DaskClient;

namespace detail {

struct TaskNode {
  std::function<void()> run;             ///< set at submit time
  /// Deterministic client-side id: submission order, assigned under the
  /// scheduler lock in wire_and_schedule. The fault injector keys off it.
  std::uint64_t id = 0;
  std::atomic<int> pending_deps{0};
  std::vector<std::shared_ptr<TaskNode>> dependents;
  std::mutex mu;  ///< guards dependents, finished and scheduled
  bool finished = false;
  bool scheduled = false;
  double enqueue_us = -1.0;  ///< tracer stamp at ready time; -1 = untraced
};

template <typename T>
struct SharedState {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::exception_ptr error;
  // Storage is optional-free: value is valid iff ready && !error.
  alignas(T) unsigned char storage[sizeof(T)];

  T& value() { return *reinterpret_cast<T*>(storage); }
  // Publishes once: the first set_value or set_error makes the state
  // ready and any later call is dropped, so a value is never
  // overwritten under a reader. Returns true iff this call published.
  bool set_value(T v) {
    std::lock_guard lk(mu);
    if (ready) return false;
    new (storage) T(std::move(v));
    ready = true;
    cv.notify_all();
    return true;
  }
  void set_error(std::exception_ptr e) {
    std::lock_guard lk(mu);
    if (ready) return;
    error = std::move(e);
    ready = true;
    cv.notify_all();
  }
  ~SharedState() {
    if (ready && !error) value().~T();
  }
};

}  // namespace detail

/// Handle to a deferred result. get() blocks until the task graph has
/// produced the value (triggering no work by itself — the scheduler is
/// already running tasks as dependencies resolve, like distributed).
template <typename T>
class Future {
 public:
  /// Blocks for the value; rethrows task exceptions.
  const T& get() const {
    std::unique_lock lk(state_->mu);
    state_->cv.wait(lk, [&] { return state_->ready; });
    if (state_->error) std::rethrow_exception(state_->error);
    return state_->value();
  }
  bool ready() const {
    std::lock_guard lk(state_->mu);
    return state_->ready;
  }

 private:
  friend class DaskClient;
  std::shared_ptr<detail::SharedState<T>> state_ =
      std::make_shared<detail::SharedState<T>>();
  std::shared_ptr<detail::TaskNode> node_;
};

/// The distributed-scheduler client: owns workers and the ready queue.
class DaskClient {
 public:
  explicit DaskClient(DaskConfig config = {});
  ~DaskClient();

  DaskClient(const DaskClient&) = delete;
  DaskClient& operator=(const DaskClient&) = delete;

  /// Submits fn() with no dependencies.
  template <typename F>
  auto submit(F fn) -> Future<std::invoke_result_t<F>> {
    return submit_after<F>(std::move(fn), {});
  }

  /// Submits fn(deps...) to run when every dependency future resolves.
  /// fn receives const references to the dependency values.
  template <typename F, typename... D>
  auto submit(F fn, const Future<D>&... deps)
      -> Future<std::invoke_result_t<F, const D&...>> {
    using R = std::invoke_result_t<F, const D&...>;
    Future<R> fut;
    auto node = std::make_shared<detail::TaskNode>();
    fut.node_ = node;
    auto state = fut.state_;
    // Raw pointer: `run` is a member of the node, so the node outlives
    // it; a shared_ptr capture would be a reference cycle. The id is
    // assigned by wire_and_schedule before the task can run.
    node->run = [this, fn = std::move(fn), state, raw = node.get(),
                 dep_states = std::make_tuple(deps.state_...)]() mutable {
      run_guarded<R>(*raw, *state, [&] {
        // Propagate the first dependency error instead of reading a
        // value that was never produced.
        std::apply(
            [](const auto&... ds) {
              (void)std::initializer_list<int>{
                  (ds->error ? std::rethrow_exception(ds->error) : void(),
                   0)...};
            },
            dep_states);
        return std::apply(
            [&](const auto&... ds) { return fn(ds->value()...); },
            dep_states);
      });
    };
    std::vector<std::shared_ptr<detail::TaskNode>> dep_nodes;
    (void)std::initializer_list<int>{
        (deps.node_ ? (dep_nodes.push_back(deps.node_), 0) : 0)...};
    wire_and_schedule(node, dep_nodes);
    return fut;
  }

  /// Blocks until the whole submitted graph has drained.
  void wait_all();

  /// Registers a "dask" process track (client thread + one per worker)
  /// and starts emitting per-task spans and queue-wait events.
  void enable_tracing(trace::Tracer& tracer);

  engines::EngineMetrics& metrics() noexcept { return metrics_; }
  const DaskConfig& config() const noexcept { return config_; }

  /// Declares a transient allocation from inside a task; throws
  /// TaskMemoryExceeded above the limit. The scheduler converts that into
  /// a simulated worker restart + retry (allowed_failures times).
  void reserve_memory(std::uint64_t bytes) const {
    engines::check_task_memory(bytes, config_.task_memory_limit);
  }

  /// Number of simulated worker restarts observed (memory-guard kills).
  std::uint64_t worker_restarts() const noexcept {
    return worker_restarts_.load();
  }

 private:
  template <typename F>
  auto submit_after(F fn, std::vector<std::shared_ptr<detail::TaskNode>> deps)
      -> Future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    Future<R> fut;
    auto node = std::make_shared<detail::TaskNode>();
    fut.node_ = node;
    auto state = fut.state_;
    node->run = [this, fn = std::move(fn), state, raw = node.get()]() mutable {
      run_guarded<R>(*raw, *state, fn);
    };
    wire_and_schedule(node, deps);
    return fut;
  }

  /// Runs `make` with the memory-restart / fault-recovery retry loop and
  /// publishes the result into `state`.
  template <typename R, typename Make>
  void run_guarded(detail::TaskNode& node, detail::SharedState<R>& state,
                   Make&& make) {
    const std::uint64_t task_id = node.id;
    metrics_.tasks_executed += 1;
    int attempts_left = config_.allowed_failures;
    const fault::FaultPlan* plan = config_.fault_plan;
    const bool inject = plan != nullptr && !plan->empty();
    for (int attempt = 0;; ++attempt) {
      try {
        if (inject) {
          const fault::FaultInjector injector(*plan,
                                              fault::EngineId::kDask);
          const fault::FaultSpec spec = injector.decide(task_id, attempt);
          if (spec.kind == fault::FaultKind::kStraggler ||
              spec.kind == fault::FaultKind::kFilesystemStall) {
            if (spec.delay_s > 0.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(spec.delay_s));
            }
          } else if (spec.kind != fault::FaultKind::kNone) {
            throw fault::InjectedFault(spec.kind, task_id, attempt);
          }
        }
        state.set_value(make());
        return;
      } catch (const engines::TaskMemoryExceeded&) {
        worker_restarts_ += 1;
        if (config_.recovery_log != nullptr) {
          config_.recovery_log->record(
              {fault::EngineId::kDask, task_id, attempt,
               fault::FaultKind::kWorkerOomKill,
               attempts_left > 0 ? fault::RecoveryAction::kRestartWorker
                                 : fault::RecoveryAction::kGiveUp,
               0.0, 0.0});
        }
        if (--attempts_left < 0) {
          state.set_error(std::current_exception());
          return;
        }
        // Simulated restart: the task is retried on a "fresh worker".
      } catch (const fault::InjectedFault& f) {
        const fault::RecoveryAction action = fault::recovery_action(
            fault::EngineId::kDask, f.kind(), attempt, plan->retry);
        const double backoff =
            fault::backoff_for_attempt(plan->retry, attempt + 1);
        if (config_.recovery_log != nullptr) {
          config_.recovery_log->record({fault::EngineId::kDask, task_id,
                                        attempt, f.kind(), action, backoff,
                                        0.0});
        }
        if (action == fault::RecoveryAction::kGiveUp) {
          state.set_error(std::current_exception());
          return;
        }
        if (action == fault::RecoveryAction::kRestartWorker) {
          worker_restarts_ += 1;
        }
        if (backoff > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
        }
      } catch (...) {
        state.set_error(std::current_exception());
        return;
      }
    }
  }

  void wire_and_schedule(
      const std::shared_ptr<detail::TaskNode>& node,
      const std::vector<std::shared_ptr<detail::TaskNode>>& deps);
  void enqueue_ready(std::shared_ptr<detail::TaskNode> node);
  void on_finished(const std::shared_ptr<detail::TaskNode>& node);
  void worker_loop(std::size_t index);

  DaskConfig config_;
  engines::EngineMetrics metrics_;
  std::atomic<std::uint64_t> worker_restarts_{0};

  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<detail::TaskNode>> ready_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t inflight_ = 0;
  std::uint64_t outstanding_ = 0;  ///< submitted but not finished
  std::uint64_t next_task_id_ = 0;  ///< submission-order ids; guarded by mu_
  bool stop_ = false;
  trace::Tracer* tracer_ = nullptr;        ///< guarded by mu_
  trace::Track client_track_{};
  std::vector<trace::Track> tracks_;       ///< per worker; guarded by mu_
};

/// A partitioned collection, Dask-Bag style.
template <typename T>
class Bag {
 public:
  /// Builds a bag of `partitions` slices of `data`.
  static Bag from_sequence(DaskClient& client, std::vector<T> data,
                           std::size_t partitions) {
    partitions = std::max<std::size_t>(1, partitions);
    Bag bag(&client);
    auto shared = std::make_shared<std::vector<T>>(std::move(data));
    const std::size_t n = shared->size();
    for (std::size_t p = 0; p < partitions; ++p) {
      bag.parts_.push_back(client.submit([shared, p, partitions, n] {
        const std::size_t base = n / partitions;
        const std::size_t extra = n % partitions;
        const std::size_t begin = p * base + std::min(p, extra);
        const std::size_t len = base + (p < extra ? 1 : 0);
        return std::vector<T>(
            shared->begin() + static_cast<std::ptrdiff_t>(begin),
            shared->begin() + static_cast<std::ptrdiff_t>(begin + len));
      }));
    }
    return bag;
  }

  std::size_t partitions() const noexcept { return parts_.size(); }

  /// Element-wise map; each partition becomes one task (no barrier:
  /// downstream tasks start as soon as their partition is ready).
  template <typename F>
  auto map(F f) const -> Bag<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    Bag<U> out(client_);
    for (const auto& part : parts_) {
      out.parts_.push_back(
          client_->submit(
              [f](const std::vector<T>& xs) {
                std::vector<U> ys;
                ys.reserve(xs.size());
                for (const T& x : xs) ys.push_back(f(x));
                return ys;
              },
              part));
    }
    return out;
  }

  /// Whole-partition map (the PSA/LF kernel entry point).
  template <typename F>
  auto map_partitions(F f) const
      -> Bag<typename std::invoke_result_t<F, const std::vector<T>&>::
                 value_type> {
    using U =
        typename std::invoke_result_t<F, const std::vector<T>&>::value_type;
    Bag<U> out(client_);
    for (const auto& part : parts_) {
      out.parts_.push_back(client_->submit(f, part));
    }
    return out;
  }

  template <typename F>
  Bag<T> filter(F pred) const {
    Bag<T> out(client_);
    for (const auto& part : parts_) {
      out.parts_.push_back(
          client_->submit(
              [pred](const std::vector<T>& xs) {
                std::vector<T> ys;
                for (const T& x : xs) {
                  if (pred(x)) ys.push_back(x);
                }
                return ys;
              },
              part));
    }
    return out;
  }

  /// Tree-fold: per-partition fold tasks, then pairwise combine tasks —
  /// the aggregation runs inside the graph, not on the client.
  template <typename Acc, typename FoldF, typename CombineF>
  Future<Acc> fold(Acc init, FoldF fold_f, CombineF combine_f) const {
    std::vector<Future<Acc>> layer;
    layer.reserve(parts_.size());
    for (const auto& part : parts_) {
      layer.push_back(client_->submit(
          [init, fold_f](const std::vector<T>& xs) {
            Acc acc = init;
            for (const T& x : xs) acc = fold_f(std::move(acc), x);
            return acc;
          },
          part));
    }
    if (layer.empty()) {
      return client_->submit([init] { return init; });
    }
    while (layer.size() > 1) {
      std::vector<Future<Acc>> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(client_->submit(
            [combine_f](const Acc& a, const Acc& b) {
              return combine_f(a, b);
            },
            layer[i], layer[i + 1]));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer.front();
  }

  /// Per-distinct-value counts (Dask Bag's frequencies): per-partition
  /// hash maps merged by a tree of combine tasks, all inside the graph.
  /// Requires std::hash<T> and operator==.
  Future<std::unordered_map<T, std::size_t>> frequencies() const {
    using Counts = std::unordered_map<T, std::size_t>;
    std::vector<Future<Counts>> layer;
    layer.reserve(parts_.size());
    for (const auto& part : parts_) {
      layer.push_back(client_->submit(
          [](const std::vector<T>& xs) {
            Counts counts;
            for (const T& x : xs) ++counts[x];
            return counts;
          },
          part));
    }
    if (layer.empty()) {
      return client_->submit([] { return Counts{}; });
    }
    while (layer.size() > 1) {
      std::vector<Future<Counts>> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(client_->submit(
            [](const Counts& a, const Counts& b) {
              Counts merged = a;
              for (const auto& [k, n] : b) merged[k] += n;
              return merged;
            },
            layer[i], layer[i + 1]));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer.front();
  }

  /// Gathers every partition to the client (Dask's compute()).
  std::vector<T> compute() const {
    std::vector<T> out;
    for (const auto& part : parts_) {
      const auto& xs = part.get();
      out.insert(out.end(), xs.begin(), xs.end());
    }
    return out;
  }

  /// The per-partition futures (for custom graph wiring).
  const std::vector<Future<std::vector<T>>>& partitions_futures() const {
    return parts_;
  }

 private:
  template <typename U>
  friend class Bag;
  explicit Bag(DaskClient* client) : client_(client) {}

  DaskClient* client_;
  std::vector<Future<std::vector<T>>> parts_;
};

}  // namespace mdtask::dask
