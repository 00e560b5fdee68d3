// DES replay of the serving layer (docs/SERVICE.md).
//
// simulate_service() is the virtual-time driver of the serving
// pipeline (pipeline.h): it replays a seeded traffic schedule
// (traffic.h) through the SAME ServicePipeline the live AnalysisService
// runs, against a sim::Resource engine pool. Engine jobs cost a base
// latency plus a per-megabyte streaming term (one store pass amortized
// across the batch, so coalescing pays); cache hits answer without
// touching the pool. Optionally the autoscale TargetUtilizationPolicy
// closes the loop on the pool, scaling it with the diurnal/bursty
// demand.
//
// The driver keeps only the timing: brownout pressure is observed at
// each arrival, the scheduler is pulled only while free servers
// outnumber open batches, deadline reapers fire as DES events and retry
// backoff waits in virtual time. Every decision — admission, routing,
// deadline strips, chaos verdicts, retries, resolutions — is the
// pipeline's, so the live service and this twin agree byte for byte on
// every injected fault for the same seed.
//
// The report carries per-tenant-class latency percentiles and SLO
// attainment — the tables bench_service prints — plus a canonical
// event log: everything is a pure function of the config, so two runs
// with the same seed produce byte-identical logs, traces and tables.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mdtask/autoscale/policy.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/service/pipeline.h"
#include "mdtask/service/traffic.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::service {

/// Per-class completion-latency targets (seconds from arrival).
struct SloTargets {
  std::array<double, kTenantClasses> latency_s{0.5, 2.0, 8.0};
};

struct ServiceSimConfig {
  TrafficConfig traffic;
  /// Pipeline knobs: admission, fair share, cache, batching,
  /// reliability and chaos (the live service takes the same struct).
  ServiceConfig service;
  /// Initial engine pool width (servers = concurrent engine jobs).
  std::size_t servers = 8;
  /// Engine job cost model: base + per-MB streaming + a marginal term
  /// per additional coalesced request.
  double service_base_s = 0.010;
  double service_per_mb_s = 0.020;
  double per_request_overhead_s = 0.002;
  SloTargets slo;
  /// Close the autoscale loop on the engine pool.
  bool autoscale_enabled = false;
  autoscale::TargetUtilizationPolicy::Config autoscale;
  double tick_interval_s = 0.5;
  /// Mirror arrivals into the log (off: only rejects, dispatches,
  /// completions and scale events are logged).
  bool log_arrivals = false;
  /// Mirror engine-job spans and service:* counters (virtual time).
  trace::Tracer* tracer = nullptr;
  std::uint32_t trace_pid = 40;
  /// Mirror chaos-failure / recovery decisions (scope kService) — the
  /// live service writes byte-identical canonical lines for the same
  /// chaos seed (the determinism tests diff the two).
  fault::RecoveryLog* recovery_log = nullptr;
  /// Track the N highest-volume tenants individually (0 = off); fills
  /// ServiceSimReport::tenants. Observation only: no behaviour change.
  std::size_t top_tenants = 0;
};

/// Outcome for one tenant class: the pipeline's counters plus latency.
struct ClassOutcome : ClassCounters {
  double p50_s = 0.0;  ///< completion latency percentiles (arrival ->
  double p95_s = 0.0;  ///< resolution, nearest-rank)
  double p99_s = 0.0;
  double max_s = 0.0;
  /// Completions within the class SLO over every judged request
  /// (completed + rejected + deadline_expired + brownout_shed +
  /// failed): any shed/miss/failure counts against.
  double slo_attainment = 0.0;
};

/// Outcome for one individual tenant (top-N by arrival volume).
struct TenantOutcome {
  std::uint64_t tenant = 0;
  TenantClass tenant_class = TenantClass::kBatch;
  std::uint64_t requests = 0;   ///< arrivals
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;     ///< sheds + deadline misses + failures
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  /// Completions within the tenant's class SLO / (completed + missed).
  double slo_attainment = 0.0;
};

/// The totals below carry the names of the pipeline's counters
/// (PipelineCounters, ClassCounters), which the live service's Stats
/// report too.
struct ServiceSimReport {
  std::array<ClassOutcome, kTenantClasses> classes;
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_joins = 0;
  std::uint64_t engine_jobs = 0;       ///< jobs dispatched
  std::uint64_t batched_requests = 0;  ///< requests carried by jobs
  std::size_t initial_servers = 0;
  std::size_t peak_servers = 0;
  std::size_t final_servers = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  // Reliability totals (all zero with the mechanisms disabled).
  std::uint64_t deadline_expired = 0;
  std::uint64_t brownout_shed = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t retries = 0;
  std::uint64_t chaos_failures = 0;
  std::uint64_t chaos_delays = 0;
  /// Largest (resolution time - deadline) over requests carrying one:
  /// the deadline reaper keeps this at 0 — the acceptance bound.
  double max_deadline_overrun_s = 0.0;
  /// Top-N tenants by arrival volume (config.top_tenants), volume-desc
  /// then tenant-id-asc; empty when tracking is off.
  std::vector<TenantOutcome> tenants;
  double horizon_s = 0.0;   ///< virtual time of the last event
  double busy_time_s = 0.0; ///< pool busy-time integral
  /// Canonical event log: deterministic, byte-identical across runs of
  /// the same config (the determinism tests diff it verbatim).
  std::vector<std::string> log;
};

ServiceSimReport simulate_service(const ServiceSimConfig& config);

}  // namespace mdtask::service
