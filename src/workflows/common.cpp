#include "mdtask/workflows/common.h"

#include <string>
#include <type_traits>

namespace mdtask::workflows {
namespace {

/// The engine's own config, built from the shared options.
template <typename Engine>
auto engine_config(const EngineOptions& options, const EngineExtras& extras) {
  if constexpr (std::is_same_v<Engine, spark::SparkContext>) {
    return spark::SparkConfig{.executor_threads = options.workers,
                              .task_memory_limit = extras.task_memory_limit,
                              .fault_plan = options.fault_plan,
                              .recovery_log = options.recovery_log};
  } else if constexpr (std::is_same_v<Engine, dask::DaskClient>) {
    return dask::DaskConfig{.workers = options.workers,
                            .task_memory_limit = extras.task_memory_limit,
                            .fault_plan = options.fault_plan,
                            .recovery_log = options.recovery_log};
  } else {
    return rp::PilotDescription{
        .cores = options.workers,
        .db_roundtrip_latency_s = extras.db_roundtrip_latency_s,
        .fault_plan = options.fault_plan,
        .recovery_log = options.recovery_log};
  }
}

}  // namespace

template <typename Engine>
EngineSession<Engine>::EngineSession(const EngineOptions& options,
                                     const EngineExtras& extras)
    : engine_(engine_config<Engine>(options, extras)) {
  if (options.tracer != nullptr) engine_.enable_tracing(*options.tracer);
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
