// Live-engine hookups for the autoscale control loop.
//
// Each factory wraps one running engine into an EngineAdapter: the
// EngineActions the AutoscaleController acts through, plus an observe
// callback that samples the engine's pool (size, busy, queue depth)
// into a MetricsWindow right before each tick. Completed-task
// durations flow into the same window through the engine's own config
// (SparkConfig/DaskConfig/PilotDescription `metrics_window`). The same
// grow/shrink actions apply a MembershipPlan's joins and leaves
// (workflows::ElasticDriver): Spark and Dask take the plan's departure
// policy as the `departure` argument, RP always drains and MPI never
// resizes.
//
// Header-only on purpose: mdtask_autoscale sits below the engines in
// the link order, so its compiled sources cannot reference them — but
// any binary that links mdtask_engines can include this glue.
#pragma once

#include <functional>

#include "mdtask/autoscale/controller.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"

namespace mdtask::autoscale {

/// One engine's hookup for a live control loop. The adapter borrows
/// the engine object; keep the engine alive for the adapter's
/// lifetime.
struct EngineAdapter {
  EngineActions actions;
  /// Samples (pool, busy, queued) into the window. The driver calls
  /// this right before each controller tick.
  std::function<void(MetricsWindow&)> observe;
};

/// Spark: executor-pool resizing via dynamic allocation plus
/// spark.speculation-style backup tasks. `departure` is how shrink
/// decommissions executors (kEngineDefault: kill, lineage recomputes).
inline EngineAdapter spark_adapter(
    spark::SparkContext& ctx,
    fault::DeparturePolicy departure =
        fault::DeparturePolicy::kEngineDefault) {
  EngineAdapter adapter;
  adapter.actions.engine = fault::EngineId::kSpark;
  adapter.actions.grow = [&ctx](std::size_t count) {
    ctx.add_executors(count);
    return count;
  };
  adapter.actions.shrink = [&ctx, departure](std::size_t count) {
    const std::size_t before = ctx.pool().size();
    ctx.decommission_executors(count, departure);
    const std::size_t after = ctx.pool().size();
    return before > after ? before - after : 0;
  };
  adapter.actions.speculate = [&ctx](double threshold_s) {
    return ctx.speculate_inflight(threshold_s);
  };
  adapter.actions.pool_size = [&ctx] { return ctx.pool().size(); };
  adapter.observe = [&ctx](MetricsWindow& window) {
    window.observe_pool(ctx.pool().size(), ctx.pool().busy(),
                        ctx.pool().queued());
  };
  return adapter;
}

/// Dask: worker add/retire plus straggler re-enqueue speculation.
/// `departure` is how shrink retires workers (kEngineDefault: drain).
inline EngineAdapter dask_adapter(
    dask::DaskClient& client,
    fault::DeparturePolicy departure =
        fault::DeparturePolicy::kEngineDefault) {
  EngineAdapter adapter;
  adapter.actions.engine = fault::EngineId::kDask;
  adapter.actions.grow = [&client](std::size_t count) {
    client.add_workers(count);
    return count;
  };
  adapter.actions.shrink = [&client, departure](std::size_t count) {
    return client.retire_workers(count, departure);
  };
  adapter.actions.speculate = [&client](double threshold_s) {
    return client.speculate_inflight(threshold_s);
  };
  adapter.actions.pool_size = [&client] { return client.workers(); };
  adapter.observe = [&client](MetricsWindow& window) {
    window.observe_pool(client.workers(), client.busy(), client.queued());
  };
  return adapter;
}

/// RADICAL-Pilot: pilot resizing only — a CU is atomic at the pilot
/// level, so there is no unit-level speculation callback, and a shrunk
/// pilot always drains its departing cores.
inline EngineAdapter rp_adapter(rp::UnitManager& manager) {
  EngineAdapter adapter;
  adapter.actions.engine = fault::EngineId::kRp;
  adapter.actions.grow = [&manager](std::size_t count) {
    manager.grow_pilot(count);
    return count;
  };
  adapter.actions.shrink = [&manager](std::size_t count) {
    return manager.shrink_pilot(count);
  };
  adapter.actions.pool_size = [&manager] { return manager.cores(); };
  adapter.observe = [&manager](MetricsWindow& window) {
    window.observe_pool(manager.cores(), manager.busy_cores(),
                        manager.queued_units());
  };
  return adapter;
}

/// MPI: a rigid world — resize decisions are recorded as rigid vetoes,
/// never applied. `busy` and `queued` samplers are optional; absent,
/// the world observes as fully busy with an empty queue (a static
/// decomposition has no task queue to deepen).
inline EngineAdapter mpi_adapter(
    std::size_t world_size, std::function<std::size_t()> busy = nullptr,
    std::function<std::size_t()> queued = nullptr) {
  EngineAdapter adapter;
  adapter.actions.engine = fault::EngineId::kMpi;
  adapter.actions.rigid = true;
  adapter.actions.pool_size = [world_size] { return world_size; };
  adapter.observe = [world_size, busy = std::move(busy),
                     queued = std::move(queued)](MetricsWindow& window) {
    window.observe_pool(world_size, busy ? busy() : world_size,
                        queued ? queued() : 0);
  };
  return adapter;
}

}  // namespace mdtask::autoscale
