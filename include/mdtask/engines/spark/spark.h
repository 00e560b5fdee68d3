// Mini-Spark: an RDD engine with lineage, stage-oriented scheduling, hash
// shuffle, broadcast variables and caching (Sec. 3.1 of the paper).
//
// Semantics reproduced from Spark:
//  * RDDs are lazy; transformations (map/mapPartitions) build lineage
//    and fuse into one stage.
//  * Wide dependencies (reduceByKey) cut stage boundaries:
//    the parent stage runs to completion (a barrier), its output is hash
//    partitioned and "written" for the shuffle, then the child stage runs.
//  * Actions (collect/reduce/tree_reduce) trigger execution.
//    tree_reduce runs Spark's treeReduce shape: each partition folds
//    inside its own stage, one shuffle stage folds groups of partitions,
//    and the driver folds what is left.
//  * Broadcast variables ship one read-only copy per executor; the engine
//    accounts the bytes moved.
//  * cache() pins computed partitions for reuse across actions.
//
// The engine executes partitions for real on a thread pool; per-task and
// per-stage counters feed the comparison benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <exception>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/engines/core.h"
#include "mdtask/fault/injector.h"
#include "mdtask/fault/recovery.h"

namespace mdtask::spark {

struct SparkConfig {
  std::size_t executor_threads = 4;  ///< parallel task slots
  /// Simulated per-task transient memory limit (0 = unlimited); tasks
  /// declare large allocations via TaskContext::reserve_memory.
  std::uint64_t task_memory_limit = 0;
  /// Optional fault-injection plan (not owned; must outlive the context).
  /// Lost tasks are recovered by lineage re-execution: the partition is
  /// simply recomputed, bounded by the plan's retry budget.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional sink for fault/recovery events (not owned).
  fault::RecoveryLog* recovery_log = nullptr;
};

class SparkContext;

/// Per-task handle passed to mapPartitions-style closures.
class TaskContext {
 public:
  TaskContext(SparkContext& ctx, std::size_t partition)
      : ctx_(ctx), partition_(partition) {}
  std::size_t partition() const noexcept { return partition_; }
  /// Declares a transient allocation; throws TaskMemoryExceeded over the
  /// configured limit (see engines/core.h).
  void reserve_memory(std::uint64_t bytes) const;

 private:
  SparkContext& ctx_;
  std::size_t partition_;
};

namespace detail {

/// Type-erased base so SparkContext can hold heterogeneous cached RDDs.
struct RddBase {
  virtual ~RddBase() = default;
};

template <typename T>
struct RddNode : RddBase {
  /// Computes partition p. Runs on an executor thread.
  std::function<std::vector<T>(TaskContext&)> compute;
  std::size_t partitions = 0;
  /// Runs parent stages (recursively) before this node's stage; set for
  /// shuffle children. Called once per action, single-threaded.
  std::function<void()> prepare;
  // Cache support.
  bool cached = false;
  std::mutex cache_mu;
  std::vector<std::optional<std::vector<T>>> cache_slots;
};

/// Computes one partition of a node honouring its cache.
template <typename T>
std::vector<T> materialize_node(SparkContext& ctx, RddNode<T>& node,
                                std::size_t partition);

/// Left fold of `values` in order with `f`: one value, or none when
/// `values` is empty.
template <typename T, typename F>
std::vector<T> fold_values(std::vector<T> values, const F& f) {
  if (values.empty()) return {};
  T acc = std::move(values.front());
  for (std::size_t i = 1; i < values.size(); ++i) {
    acc = f(std::move(acc), std::move(values[i]));
  }
  std::vector<T> out;
  out.push_back(std::move(acc));
  return out;
}

/// Bytes one record moves through a shuffle: byte_size() for a type
/// that owns heap data and reports it, sizeof otherwise.
template <typename T>
std::uint64_t record_bytes(const T& x) {
  if constexpr (requires { x.byte_size(); }) {
    return x.byte_size();
  } else {
    return sizeof(T);
  }
}

/// A keyed record: the pair's own bytes, with the value's payload in
/// place of the value when it reports one (POD pairs count sizeof).
template <typename K, typename V>
std::uint64_t record_bytes(const std::pair<K, V>& kv) {
  return sizeof(kv) - sizeof(V) + record_bytes(kv.second);
}

}  // namespace detail

template <typename T>
class RDD;

/// A read-only value shipped once per executor. Dereference in closures.
template <typename T>
class Broadcast {
 public:
  const T& operator*() const noexcept { return *value_; }
  const T* operator->() const noexcept { return value_.get(); }

 private:
  friend class SparkContext;
  explicit Broadcast(std::shared_ptr<const T> v) : value_(std::move(v)) {}
  std::shared_ptr<const T> value_;
};

/// Driver-side entry point; owns the executor pool and metrics.
class SparkContext {
 public:
  explicit SparkContext(SparkConfig config = {})
      : config_(config), pool_(config.executor_threads) {}

  /// Distributes `data` into `partitions` slices as the base RDD.
  template <typename T>
  RDD<T> parallelize(std::vector<T> data, std::size_t partitions);

  /// Ships `value` to executors; `approx_bytes` is the accounted payload
  /// size (pass the real byte size of the broadcast content).
  template <typename T>
  Broadcast<T> broadcast(T value, std::uint64_t approx_bytes) {
    // One copy per executor thread, as Spark ships one per executor.
    metrics_.broadcast_bytes += approx_bytes * pool_.size();
    if (tracer_ != nullptr) {
      tracer_->counter(driver_track_, "broadcast_bytes", tracer_->now_us(),
                       static_cast<double>(metrics_.broadcast_bytes.load(
                           std::memory_order_relaxed)));
    }
    return Broadcast<T>(std::make_shared<const T>(std::move(value)));
  }

  /// Registers a "spark" process track with a driver thread plus one
  /// executor thread per pool worker, and starts emitting stage/task
  /// spans and shuffle/broadcast counters.
  void enable_tracing(trace::Tracer& tracer) {
    const std::uint32_t pid = tracer.process("spark");
    driver_track_ = tracer.thread(pid, "driver");
    pool_.enable_tracing(tracer, pid, "executor");
    tracer_ = &tracer;
  }

  engines::EngineMetrics& metrics() noexcept { return metrics_; }
  const SparkConfig& config() const noexcept { return config_; }

  /// Runs one stage: computes every partition of `node` on the pool.
  /// Returns all partition outputs. Respects caching.
  template <typename T>
  std::vector<std::vector<T>> run_stage(detail::RddNode<T>& node);

 private:
  SparkConfig config_;
  mdtask::ThreadPool pool_;
  engines::EngineMetrics metrics_;
  trace::Tracer* tracer_ = nullptr;
  trace::Track driver_track_{};
};

/// The Resilient Distributed Dataset handle. Cheap to copy (shared node).
template <typename T>
class RDD {
 public:
  std::size_t partitions() const noexcept { return node_->partitions; }

  /// Narrow transformation: element-wise map (fused, same stage).
  template <typename F>
  auto map(F f) const -> RDD<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    auto parent = node_;
    auto child = std::make_shared<detail::RddNode<U>>();
    child->partitions = parent->partitions;
    child->prepare = parent->prepare;
    auto* ctx = ctx_;
    child->compute = [ctx, parent, f](TaskContext& tc) {
      std::vector<U> out;
      auto in = materialize(*ctx, *parent, tc);
      out.reserve(in.size());
      for (const T& x : in) out.push_back(f(x));
      return out;
    };
    return RDD<U>(ctx_, std::move(child));
  }

  /// Narrow transformation over whole partitions (the PSA/LF map kernel
  /// entry point; receives the TaskContext for memory accounting).
  template <typename F>
  auto map_partitions(F f) const
      -> RDD<typename std::invoke_result_t<F, TaskContext&,
                                           std::vector<T>&>::value_type> {
    using U = typename std::invoke_result_t<F, TaskContext&,
                                            std::vector<T>&>::value_type;
    auto parent = node_;
    auto child = std::make_shared<detail::RddNode<U>>();
    child->partitions = parent->partitions;
    child->prepare = parent->prepare;
    auto* ctx = ctx_;
    child->compute = [ctx, parent, f](TaskContext& tc) {
      auto in = materialize(*ctx, *parent, tc);
      return f(tc, in);
    };
    return RDD<U>(ctx_, std::move(child));
  }

  /// Marks this RDD's partitions for in-memory reuse across actions.
  RDD<T>& cache() {
    node_->cached = true;
    node_->cache_slots.resize(node_->partitions);
    return *this;
  }

  // ---- actions ----

  /// Runs the lineage and returns all elements (partition order).
  std::vector<T> collect() const {
    if (node_->prepare) node_->prepare();
    auto parts = ctx_->run_stage(*node_);
    std::vector<T> out;
    for (auto& p : parts) {
      out.insert(out.end(), std::make_move_iterator(p.begin()),
                 std::make_move_iterator(p.end()));
    }
    return out;
  }

  /// Collects every element to the driver and folds them there with
  /// `f`, in partition order; an empty RDD returns default-constructed T
  /// (callers guard as in Spark).
  template <typename F>
  T reduce(F f) const {
    auto folded = detail::fold_values(collect(), f);
    return folded.empty() ? T{} : std::move(folded.front());
  }

  /// Reduces all elements with the associative `f` as a tree, in the
  /// shape of Spark's treeReduce at its default depth 2: each partition
  /// folds inside this RDD's stage; with scale = max(ceil(sqrt(n)), 2),
  /// when n > scale + ceil(n / scale) one shuffle stage folds the n
  /// partial values into n / scale buckets (Spark's depth-2 loop never
  /// runs a second level: n / scale <= sqrt(n) <= scale); the driver
  /// folds the rest. Buckets are contiguous partition ranges and every
  /// fold runs in partition order, so the result is the left fold in
  /// partition order. The level is an ordinary stage (its own span,
  /// fault injection and lineage re-execution) and counts
  /// its shuffled values' bytes. An empty RDD returns default-constructed
  /// T, as reduce does.
  template <typename F>
  T tree_reduce(F f) const;

  SparkContext& context() const noexcept { return *ctx_; }

  // The wide transformation is a free function (needs pair detection):
  // see reduce_by_key below.
  RDD(SparkContext* ctx, std::shared_ptr<detail::RddNode<T>> node)
      : ctx_(ctx), node_(std::move(node)) {}

  std::shared_ptr<detail::RddNode<T>> node() const { return node_; }

 private:
  /// Computes a partition of `node`, honouring its cache.
  static std::vector<T> materialize(SparkContext& ctx,
                                    detail::RddNode<T>& node,
                                    TaskContext& tc) {
    return detail::materialize_node(ctx, node, tc.partition());
  }

  SparkContext* ctx_;
  std::shared_ptr<detail::RddNode<T>> node_;
};

template <typename T>
RDD<T> SparkContext::parallelize(std::vector<T> data,
                                 std::size_t partitions) {
  partitions = std::max<std::size_t>(1, partitions);
  auto shared =
      std::make_shared<std::vector<T>>(std::move(data));
  auto node = std::make_shared<detail::RddNode<T>>();
  node->partitions = partitions;
  const std::size_t n = shared->size();
  node->compute = [shared, partitions, n](TaskContext& tc) {
    const std::size_t p = tc.partition();
    const std::size_t base = n / partitions;
    const std::size_t extra = n % partitions;
    const std::size_t begin = p * base + std::min(p, extra);
    const std::size_t len = base + (p < extra ? 1 : 0);
    return std::vector<T>(shared->begin() + static_cast<std::ptrdiff_t>(begin),
                          shared->begin() +
                              static_cast<std::ptrdiff_t>(begin + len));
  };
  return RDD<T>(this, std::move(node));
}

template <typename T>
std::vector<std::vector<T>> SparkContext::run_stage(
    detail::RddNode<T>& node) {
  const std::uint64_t stage_id =
      metrics_.stages_executed.fetch_add(1, std::memory_order_relaxed) + 1;
  trace::Span stage_span;
  if (tracer_ != nullptr) {
    stage_span = tracer_->span(driver_track_,
                               "stage-" + std::to_string(stage_id), "stage");
    stage_span.arg_num("partitions",
                       static_cast<double>(node.partitions));
  }
  std::vector<std::vector<T>> outputs(node.partitions);
  // One task per partition, writing only outputs[p]. Under a fault
  // plan a lost attempt is re-executed from lineage by the retry loop
  // below; the recomputed partition is byte-identical.
  const auto run_partition = [this, &node, &outputs,
                              stage_id](std::size_t p) {
      metrics_.tasks_executed += 1;
      trace::Span task_span;
      if (tracer_ != nullptr) {
        const trace::Track* track = ThreadPool::current_worker_track();
        task_span = tracer_->span(track != nullptr ? *track : driver_track_,
                                  "task", "task");
        task_span.arg_num("partition", static_cast<double>(p));
      }
      const auto execute = [this, &node, &outputs, p] {
        if (node.cached) {
          std::lock_guard lk(node.cache_mu);
          if (node.cache_slots[p]) {
            outputs[p] = *node.cache_slots[p];
            return;
          }
        }
        TaskContext tc(*this, p);
        outputs[p] = node.compute(tc);
        if (node.cached) {
          std::lock_guard lk(node.cache_mu);
          if (!node.cache_slots[p]) node.cache_slots[p] = outputs[p];
        }
      };
      if (config_.fault_plan == nullptr || config_.fault_plan->empty()) {
        execute();
        return;
      }
      // Deterministic task id: stage in the high bits, partition in the
      // low bits — stable across runs and thread interleavings.
      const std::uint64_t task_id = (stage_id << 20) | p;
      const fault::FaultInjector injector(*config_.fault_plan,
                                          fault::EngineId::kSpark);
      for (int attempt = 0;; ++attempt) {
        const fault::FaultSpec spec = injector.decide(task_id, attempt);
        if (spec.kind == fault::FaultKind::kNone) {
          execute();
          return;
        }
        if (spec.kind == fault::FaultKind::kStraggler ||
            spec.kind == fault::FaultKind::kFilesystemStall) {
          // Slowdowns complete; they just take longer.
          if (spec.delay_s > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(spec.delay_s));
          }
          execute();
          return;
        }
        // The attempt is lost before it can publish output — lineage
        // makes the partition recomputable, so just try again.
        const fault::RecoveryAction action = fault::recovery_action(
            fault::EngineId::kSpark, spec.kind, attempt,
            config_.fault_plan->retry);
        if (config_.recovery_log != nullptr) {
          config_.recovery_log->record(
              {fault::EngineId::kSpark, task_id, attempt, spec.kind, action,
               fault::backoff_for_attempt(config_.fault_plan->retry,
                                          attempt + 1),
               tracer_ != nullptr ? tracer_->now_us() : 0.0});
        }
        if (action == fault::RecoveryAction::kGiveUp) {
          throw fault::InjectedFault(spec.kind, task_id, attempt);
        }
        metrics_.tasks_executed += 1;  // the re-execution is a new task
      }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(node.partitions);
  for (std::size_t p = 0; p < node.partitions; ++p) {
    futures.push_back(pool_.submit([&run_partition, p] { run_partition(p); }));
  }
  // Stage barrier: drain EVERY task before surfacing an error, so no
  // in-flight task can touch `outputs` after this frame unwinds.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (tracer_ != nullptr) {
    const double now = tracer_->now_us();
    tracer_->counter(driver_track_, "shuffle_bytes", now,
                     static_cast<double>(metrics_.shuffle_bytes.load(
                         std::memory_order_relaxed)));
    tracer_->counter(driver_track_, "tasks_executed", now,
                     static_cast<double>(metrics_.tasks_executed.load(
                         std::memory_order_relaxed)));
  }
  return outputs;
}

inline void TaskContext::reserve_memory(std::uint64_t bytes) const {
  engines::check_task_memory(bytes, ctx_.config().task_memory_limit);
}

namespace detail {

template <typename T>
std::vector<T> materialize_node(SparkContext& ctx, RddNode<T>& node,
                                std::size_t partition) {
  TaskContext tc(ctx, partition);
  if (!node.cached) return node.compute(tc);
  {
    std::lock_guard lk(node.cache_mu);
    if (node.cache_slots[partition]) return *node.cache_slots[partition];
  }
  auto data = node.compute(tc);
  std::lock_guard lk(node.cache_mu);
  node.cache_slots[partition] = data;
  return data;
}

/// A shuffle child of `parent` with `buckets` partitions: the stage
/// boundary of reduce_by_key and tree_reduce's level. Its prepare runs
/// the parent's stage, moves each record to bucket
/// `route(source partition, record)` and adds the records and their
/// bytes to the shuffle metrics; its compute applies `reduce` to the
/// partition's bucket. `reduce` only reads the bucket, so a re-executed
/// task finds it intact.
template <typename T, typename Route, typename Reduce>
std::shared_ptr<RddNode<T>> shuffle_node(SparkContext& ctx,
                                         std::shared_ptr<RddNode<T>> parent,
                                         std::size_t buckets, Route route,
                                         Reduce reduce) {
  auto child = std::make_shared<RddNode<T>>();
  child->partitions = buckets;
  auto shuffle = std::make_shared<std::vector<std::vector<T>>>();
  SparkContext* ctx_ptr = &ctx;
  child->prepare = [ctx_ptr, parent, shuffle, buckets, route] {
    if (parent->prepare) parent->prepare();
    auto map_outputs = ctx_ptr->run_stage(*parent);
    shuffle->assign(buckets, {});
    std::uint64_t bytes = 0, records = 0;
    for (std::size_t source = 0; source < map_outputs.size(); ++source) {
      for (T& x : map_outputs[source]) {
        bytes += record_bytes(x);
        (*shuffle)[route(source, x)].push_back(std::move(x));
        records += 1;
      }
    }
    ctx_ptr->metrics().shuffle_bytes += bytes;
    ctx_ptr->metrics().shuffle_records += records;
  };
  child->compute = [shuffle, reduce](TaskContext& tc) {
    return reduce(std::as_const((*shuffle)[tc.partition()]));
  };
  return child;
}

}  // namespace detail

template <typename T>
template <typename F>
T RDD<T>::tree_reduce(F f) const {
  auto folded = map_partitions([f](TaskContext&, std::vector<T>& xs) {
    return detail::fold_values(std::move(xs), f);
  });
  const std::size_t n = folded.partitions();
  std::size_t scale = 2;
  while (scale * scale < n) ++scale;
  if (n <= scale + (n + scale - 1) / scale) return folded.reduce(f);
  const std::size_t buckets = n / scale;
  auto level = detail::shuffle_node(
      *ctx_, folded.node(), buckets,
      [n, buckets](std::size_t source, const T&) {
        return source * buckets / n;
      },
      [f](const std::vector<T>& bucket) {
        return detail::fold_values(bucket, f);
      });
  return RDD<T>(ctx_, std::move(level)).reduce(f);
}

/// Wide transformation: groups (K, V) pairs by key with a hash shuffle
/// into `num_partitions` reduce partitions, then merges values with `f`.
/// Cuts a stage boundary: the map stage runs to completion first.
template <typename K, typename V, typename F>
RDD<std::pair<K, V>> reduce_by_key(const RDD<std::pair<K, V>>& rdd, F f,
                                   std::size_t num_partitions) {
  num_partitions = std::max<std::size_t>(1, num_partitions);
  auto child = detail::shuffle_node(
      rdd.context(), rdd.node(), num_partitions,
      [num_partitions](std::size_t, const std::pair<K, V>& kv) {
        return std::hash<K>{}(kv.first) % num_partitions;
      },
      [f](const std::vector<std::pair<K, V>>& bucket) {
        // Hash-merge within the reduce partition.
        std::unordered_map<K, V> merged;
        for (const auto& kv : bucket) {
          auto [it, inserted] = merged.try_emplace(kv.first, kv.second);
          if (!inserted) it->second = f(std::move(it->second), kv.second);
        }
        std::vector<std::pair<K, V>> out;
        out.reserve(merged.size());
        for (auto& kv : merged) {
          out.emplace_back(kv.first, std::move(kv.second));
        }
        return out;
      });
  return RDD<std::pair<K, V>>(&rdd.context(), std::move(child));
}

}  // namespace mdtask::spark
