#include "mdtask/workflows/common.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mdtask::workflows {
namespace {

/// The engine's own config, built from the shared options.
template <typename Engine>
auto engine_config(const EngineOptions& options, const EngineExtras& extras,
                   autoscale::MetricsWindow* window) {
  if constexpr (std::is_same_v<Engine, spark::SparkContext>) {
    return spark::SparkConfig{.executor_threads = options.workers,
                              .task_memory_limit = extras.task_memory_limit,
                              .fault_plan = options.fault_plan,
                              .recovery_log = options.recovery_log,
                              .metrics_window = window};
  } else if constexpr (std::is_same_v<Engine, dask::DaskClient>) {
    return dask::DaskConfig{.workers = options.workers,
                            .task_memory_limit = extras.task_memory_limit,
                            .fault_plan = options.fault_plan,
                            .recovery_log = options.recovery_log,
                            .metrics_window = window};
  } else {
    return rp::PilotDescription{
        .cores = options.workers,
        .db_roundtrip_latency_s = extras.db_roundtrip_latency_s,
        .fault_plan = options.fault_plan,
        .recovery_log = options.recovery_log,
        .metrics_window = window};
  }
}

/// The engine's autoscale hookup; `departure` applies to Spark and Dask
/// shrinks (RP always drains).
template <typename Engine>
autoscale::EngineAdapter adapter_for(Engine& engine,
                                     fault::DeparturePolicy departure) {
  if constexpr (std::is_same_v<Engine, spark::SparkContext>) {
    return autoscale::spark_adapter(engine, departure);
  } else if constexpr (std::is_same_v<Engine, dask::DaskClient>) {
    return autoscale::dask_adapter(engine, departure);
  } else {
    return autoscale::rp_adapter(engine);
  }
}

}  // namespace

ElasticDriver::ElasticDriver(const fault::MembershipPlan* plan,
                             autoscale::EngineActions actions) {
  if (plan == nullptr || plan->empty()) return;
  std::vector<fault::MembershipEvent> schedule = plan->schedule;
  // A joined node serves only after the plan's warm-up, as in the DES.
  for (auto& ev : schedule) {
    if (ev.kind == fault::MembershipKind::kNodeJoin) {
      ev.at_s += plan->join_warmup_s;
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const fault::MembershipEvent& a,
                      const fault::MembershipEvent& b) {
                     return a.at_s < b.at_s;
                   });
  thread_ = std::thread([this, schedule = std::move(schedule),
                         actions = std::move(actions)] {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& ev : schedule) {
      {
        std::unique_lock lk(mu_);
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(ev.at_s));
        if (cv_.wait_until(lk, due, [this] { return stop_; })) return;
      }
      if (ev.kind == fault::MembershipKind::kNodeJoin) {
        actions.grow(ev.count);
      } else {
        actions.shrink(ev.count);
      }
    }
  });
}

ElasticDriver::~ElasticDriver() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AdaptiveDriver::AdaptiveDriver(const autoscale::AdaptiveConfig& config,
                               autoscale::EngineAdapter adapter,
                               autoscale::MetricsWindow* window,
                               fault::RecoveryLog* log)
    : observe_(std::move(adapter.observe)), window_(window) {
  if (!config.enabled || window_ == nullptr) return;
  controller_ = std::make_unique<autoscale::AutoscaleController>(
      config, std::move(adapter.actions), window_, log);
  const double tick_s = std::max(config.tick_interval_s, 1e-4);
  thread_ = std::thread([this, tick_s] {
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      {
        std::unique_lock lk(mu_);
        cv_.wait_for(lk, std::chrono::duration<double>(tick_s),
                     [this] { return stop_; });
        if (stop_) return;
      }
      if (observe_) observe_(*window_);
      const double now_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      controller_->tick(now_s);
      ticks_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

AdaptiveDriver::~AdaptiveDriver() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

template <typename Engine>
EngineSession<Engine>::EngineSession(const EngineOptions& options,
                                     const EngineExtras& extras)
    : engine_(engine_config<Engine>(
          options, extras, options.adaptive.enabled ? &window_ : nullptr)) {
  if (options.tracer != nullptr) engine_.enable_tracing(*options.tracer);
  // Plan leaves depart by the plan's policy; the controller's own
  // scale-downs keep the engine default.
  const fault::MembershipPlan* plan = options.membership_plan;
  const fault::DeparturePolicy departure =
      plan != nullptr ? plan->departure
                      : fault::DeparturePolicy::kEngineDefault;
  elastic_.emplace(plan, adapter_for(engine_, departure).actions);
  adaptive_.emplace(options.adaptive,
                    adapter_for(engine_,
                                fault::DeparturePolicy::kEngineDefault),
                    &window_, options.recovery_log);
}

template <typename Engine>
RunMetrics EngineSession<Engine>::metrics() {
  const engines::EngineMetrics& m = engine_.metrics();
  return {.tasks = m.tasks_executed.load(),
          .stages = m.stages_executed.load(),
          .shuffle_bytes = m.shuffle_bytes.load(),
          .broadcast_bytes = m.broadcast_bytes.load(),
          .staged_bytes = m.staged_bytes.load(),
          .db_roundtrips = m.db_roundtrips.load()};
}

template class EngineSession<spark::SparkContext>;
template class EngineSession<dask::DaskClient>;
template class EngineSession<rp::UnitManager>;

mpi::SpmdReport run_mpi_job(const EngineOptions& options, int ranks,
                            const mpi::RecoverableSpmdBody& body) {
  // Rigid world: the controller can only record vetoed resize
  // decisions, reproducing the paper's inelastic-MPI baseline.
  autoscale::MetricsWindow window;
  AdaptiveDriver adaptive(options.adaptive,
                          autoscale::mpi_adapter(
                              static_cast<std::size_t>(ranks)),
                          &window, options.recovery_log);
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    return mpi::run_spmd_with_recovery(ranks, body, *options.fault_plan,
                                       options.recovery_log,
                                       mpi::BcastAlgorithm::kBinomialTree,
                                       options.tracer);
  }
  fault::CheckpointStore store;
  return mpi::run_spmd(
      ranks, [&](mpi::Communicator& comm) { body(comm, store); },
      mpi::BcastAlgorithm::kBinomialTree, options.tracer);
}

trace::Span run_span(trace::Tracer* tracer, std::string_view workflow,
                     EngineKind engine) {
  if (tracer == nullptr) return {};
  const std::uint32_t pid = tracer->process("workflow");
  return tracer->span(tracer->named_thread(pid, "driver"),
                      std::string(workflow) + "/" + to_string(engine),
                      "workflow");
}

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RADICAL-Pilot";
  }
  return "?";
}

}  // namespace mdtask::workflows
