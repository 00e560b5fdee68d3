#include "mdtask/service/sim_service.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "mdtask/autoscale/metrics.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::service {
namespace {

/// Fixed-precision virtual timestamp: canonical log lines must render
/// identically across runs and platforms.
std::string fmt_time(double t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

constexpr std::size_t kMaxLogLines = 50000;

/// Per-tenant observation record (top_tenants tracking).
struct TenantTrack {
  TenantClass tenant_class = TenantClass::kBatch;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
  std::vector<double> latencies;
};

}  // namespace

ServiceSimReport simulate_service(const ServiceSimConfig& config) {
  ServiceSimReport report;
  const std::vector<TrafficEvent> traffic = generate_traffic(config.traffic);
  report.requests = traffic.size();

  sim::Simulation simulation;
  const std::size_t servers0 = std::max<std::size_t>(1, config.servers);
  sim::Resource pool(simulation, servers0);
  report.initial_servers = servers0;
  report.peak_servers = servers0;

  trace::Track frontend_track{};
  if (config.tracer != nullptr) {
    pool.set_trace(config.tracer, config.trace_pid, "server",
                   "engine-job");
    frontend_track =
        config.tracer->thread(config.trace_pid, "frontend");
  }

  ServicePipeline core(config.service);
  core.set_recovery_log(config.recovery_log);
  autoscale::MetricsWindow metrics;
  autoscale::TargetUtilizationPolicy policy(config.autoscale);

  std::array<std::vector<double>, kTenantClasses> latencies;
  /// std::map: the final top-N selection iterates in deterministic
  /// tenant-id order before sorting by volume.
  std::map<std::uint64_t, TenantTrack> tenants;

  auto log_line = [&report](std::string line) {
    if (report.log.size() < kMaxLogLines) {
      report.log.push_back(std::move(line));
    } else if (report.log.size() == kMaxLogLines) {
      report.log.push_back("(log truncated)");
    }
  };

  auto tenant_track = [&](const AnalysisRequest& request) -> TenantTrack* {
    if (config.top_tenants == 0) return nullptr;
    TenantTrack& track = tenants[request.tenant];
    track.tenant_class = request.tenant_class;
    return &track;
  };

  /// Records what the pipeline resolved at the current virtual time:
  /// latency, tenant outcome, deadline overrun and reaper log lines.
  std::vector<Resolution> resolved;
  auto settle = [&] {
    const double now = simulation.now();
    for (const Resolution& r : resolved) {
      const AnalysisRequest& request = r.request;
      TenantTrack* track = tenant_track(request);
      if (r.kind == Resolution::Kind::kExpired) {
        if (track != nullptr) ++track->missed;
        log_line("t=" + fmt_time(now) + " deadline id=" +
                 std::to_string(request.id) + " class=" +
                 to_string(request.tenant_class));
        continue;
      }
      if (request.deadline_s > 0.0 && now > request.deadline_s) {
        report.max_deadline_overrun_s = std::max(
            report.max_deadline_overrun_s, now - request.deadline_s);
      }
      if (r.kind == Resolution::Kind::kFailed) {
        if (track != nullptr) ++track->missed;
        continue;
      }
      const double latency = now - r.arrival_s;
      latencies[static_cast<std::size_t>(request.tenant_class)].push_back(
          latency);
      if (track != nullptr) {
        ++track->completed;
        track->latencies.push_back(latency);
      }
    }
    resolved.clear();
  };

  auto job_cost = [&config](const EngineJob& job) {
    const double mb =
        static_cast<double>(job.total_bytes()) / (1024.0 * 1024.0);
    const double extra =
        job.requests.empty()
            ? 0.0
            : static_cast<double>(job.requests.size() - 1);
    return config.service_base_s + config.service_per_mb_s * mb +
           config.per_request_overhead_s * extra;
  };

  std::function<void()> pump;
  std::function<void(EngineJob)> dispatch;
  std::function<void(std::shared_ptr<DispatchedJob>, int)> run_attempt;

  /// Completes one job with `result` and logs it.
  auto finish_job = [&](const DispatchedJob& job,
                        Result<std::vector<ResultPayload>> result) {
    const bool ok = result.ok();
    core.complete(job, std::move(result), &resolved);
    settle();
    log_line("t=" + fmt_time(simulation.now()) +
             (ok ? " complete job=" : " fail job=") +
             std::to_string(job.job.job_id) + " requests=" +
             std::to_string(job.job.requests.size()));
  };

  /// One executor attempt in virtual time: the pipeline's verdict, the
  /// pool acquisition, and the retry continuation after the backoff.
  run_attempt = [&](std::shared_ptr<DispatchedJob> job, int attempt) {
    Result<ChaosOutcome> verdict =
        core.begin_attempt(*job, attempt, simulation.now());
    if (!verdict.ok()) {
      finish_job(*job, verdict.error());
      pump();
      return;
    }
    const double cost = job_cost(job->job) + verdict.value().delay_s;
    pool.acquire(cost, [&, job, attempt, verdict = verdict.value(), cost] {
      const double done = simulation.now();
      metrics.record_task_duration(cost);
      if (!verdict.fails()) {
        std::vector<ResultPayload> answers;
        for (const AnalysisRequest& request : job->job.requests) {
          answers.push_back(ResultPayload{
              {static_cast<double>(request_key(request).params % 1024)},
              4096 + request.input_bytes / 256});
        }
        finish_job(*job, std::move(answers));
        pump();
        return;
      }
      log_line("t=" + fmt_time(done) + " chaos-fail job=" +
               std::to_string(job->job.job_id) + " attempt=" +
               std::to_string(attempt));
      if (const auto backoff =
              core.retry_after(*job, attempt, verdict, done)) {
        simulation.after(*backoff, [&, job, attempt] {
          run_attempt(job, attempt + 1);
        });
      } else {
        finish_job(*job, Error(ErrorCode::kUnavailable,
                               "chaos: injected fault"));
      }
      pump();
    });
  };

  dispatch = [&](EngineJob job) {
    const double now = simulation.now();
    std::optional<DispatchedJob> dispatched =
        core.dispatch(std::move(job), now, &resolved);
    settle();
    if (!dispatched) return;
    const EngineJob& run = dispatched->job;
    log_line("t=" + fmt_time(now) + " dispatch job=" +
             std::to_string(run.job_id) + " family=" +
             to_string(run.family) + " requests=" +
             std::to_string(run.requests.size()) + " bytes=" +
             std::to_string(run.total_bytes()));
    if (config.tracer != nullptr) {
      config.tracer->counter(frontend_track, "service:queue-depth",
                             now * 1e6,
                             static_cast<double>(core.scheduler().queued()));
    }
    run_attempt(std::make_shared<DispatchedJob>(std::move(*dispatched)), 0);
  };

  // Open batches flush when their delay window expires: every add that
  // leaves a batch open arms an event at the earliest deadline, and
  // each flush re-arms for the next one. due_batches() is idempotent, so
  // the occasional duplicate event is harmless (and deterministic).
  std::function<void()> arm_flush;
  arm_flush = [&] {
    const auto deadline = core.batcher().next_deadline();
    if (!deadline.has_value()) return;
    const double at = std::max(*deadline, simulation.now());
    simulation.at(at, [&] {
      for (EngineJob& job : core.due_batches(simulation.now())) {
        dispatch(std::move(job));
      }
      arm_flush();
    });
  };

  pump = [&] {
    if (core.shrinking()) {
      for (EngineJob& job : core.flush_batches()) dispatch(std::move(job));
    }
    // One free server is reserved per open batch (it will need one at
    // its deadline); the rest of the free capacity pulls from the
    // fair-share scheduler in DRR order.
    while (pool.free_servers() > core.batcher().open_batches()) {
      std::optional<Routed> routed =
          core.route_next(simulation.now(), &resolved);
      if (!routed) break;
      if (routed->route == Route::kStale) {
        log_line("t=" + fmt_time(simulation.now()) + " stale-serve id=" +
                 std::to_string(resolved.back().request.id));
      }
      settle();
      if (routed->route != Route::kBatched) continue;
      if (routed->job) {
        dispatch(std::move(*routed->job));
      } else {
        arm_flush();
      }
    }
  };

  for (const TrafficEvent& event : traffic) {
    simulation.at(event.arrival_s, [&, event] {
      const double now = simulation.now();
      const AnalysisRequest& request = event.request;
      TenantTrack* track = tenant_track(request);
      if (track != nullptr) ++track->requests;
      core.observe_pressure();
      const Arrival arrival = core.arrive(request, now);
      if (!arrival.status.ok()) {
        if (track != nullptr) ++track->missed;
        log_line("t=" + fmt_time(now) +
                 (arrival.brownout
                      ? " brownout-shed id=" + std::to_string(request.id)
                      : " reject id=" + std::to_string(request.id) +
                            " class=" + to_string(request.tenant_class)));
        return;
      }
      if (arrival.deadline_s > 0.0) {
        // The reaper: at the deadline the request fails NOW, wherever
        // it sits (queue, open batch, joiner list, running job).
        simulation.at(arrival.deadline_s, [&, id = request.id] {
          core.expire(id, &resolved);
          settle();
        });
      }
      if (config.log_arrivals) {
        log_line("t=" + fmt_time(now) + " arrive id=" +
                 std::to_string(request.id) + " class=" +
                 to_string(request.tenant_class) + " tenant=" +
                 std::to_string(request.tenant));
      }
      pump();
    });
  }

  const double tick_dt = std::max(1e-3, config.tick_interval_s);
  std::function<void()> tick;
  tick = [&] {
    const double now = simulation.now();
    const std::size_t size = pool.servers();
    const std::size_t free = std::min(size, pool.free_servers());
    const std::size_t depth = core.scheduler().queued() + pool.queued() +
                              core.batcher().pending();
    metrics.observe_pool(size, size - free, depth);
    const autoscale::Decision decision =
        policy.decide(metrics.snapshot(now));
    if (decision.kind == autoscale::Decision::Kind::kScaleUp &&
        decision.count > 0) {
      pool.add_servers(decision.count);
      ++report.scale_ups;
      log_line("t=" + fmt_time(now) + " scale-up +" +
               std::to_string(decision.count) + " pool=" +
               std::to_string(pool.servers()));
      pump();
    } else if (decision.kind == autoscale::Decision::Kind::kScaleDown &&
               decision.count > 0) {
      pool.remove_servers(decision.count);
      ++report.scale_downs;
      log_line("t=" + fmt_time(now) + " scale-down -" +
               std::to_string(decision.count) + " pool=" +
               std::to_string(pool.servers()));
    }
    report.peak_servers = std::max(report.peak_servers, pool.servers());
    if (config.tracer != nullptr) {
      config.tracer->counter(frontend_track, "service:pool", now * 1e6,
                             static_cast<double>(pool.servers()));
      config.tracer->counter(frontend_track, "service:queue-depth",
                             now * 1e6, static_cast<double>(depth));
    }
    const bool work_left = core.scheduler().queued() + pool.queued() +
                                   core.batcher().pending() >
                               0 ||
                           pool.free_servers() < pool.servers();
    if (now + tick_dt <= config.traffic.duration_s || work_left) {
      simulation.after(tick_dt, tick);
    }
  };
  if (config.autoscale_enabled) simulation.after(tick_dt, tick);

  report.horizon_s = simulation.run();
  report.final_servers = pool.servers();
  report.busy_time_s = pool.busy_time();

  const PipelineCounters& counts = core.counters();
  for (std::size_t c = 0; c < kTenantClasses; ++c) {
    ClassOutcome& out = report.classes[c];
    static_cast<ClassCounters&>(out) = counts.classes[c];
    std::vector<double>& lat = latencies[c];
    out.p50_s = autoscale::duration_percentile(lat, 50.0);
    out.p95_s = autoscale::duration_percentile(lat, 95.0);
    out.p99_s = autoscale::duration_percentile(lat, 99.0);
    for (const double l : lat) out.max_s = std::max(out.max_s, l);
    std::uint64_t within = 0;
    for (const double l : lat) {
      if (l <= config.slo.latency_s[c]) ++within;
    }
    const std::uint64_t judged = out.completed + out.rejected +
                                 out.deadline_expired + out.brownout_shed +
                                 out.failed;
    out.slo_attainment =
        judged == 0 ? 1.0
                    : static_cast<double>(within) /
                          static_cast<double>(judged);
  }
  report.admitted = counts.total(&ClassCounters::admitted);
  report.rejected = counts.total(&ClassCounters::rejected);
  report.completed = counts.total(&ClassCounters::completed);
  report.cache_hits = counts.total(&ClassCounters::cache_hits);
  report.dedup_joins = counts.total(&ClassCounters::dedup_joins);
  report.deadline_expired = counts.total(&ClassCounters::deadline_expired);
  report.brownout_shed = counts.total(&ClassCounters::brownout_shed);
  report.engine_jobs = counts.engine_jobs;
  report.batched_requests = counts.batched_requests;
  report.stale_served = counts.stale_served;
  report.retries = counts.retries;
  report.chaos_failures = counts.chaos_failures;
  report.chaos_delays = counts.chaos_delays;

  if (config.top_tenants > 0 && !tenants.empty()) {
    std::vector<std::pair<std::uint64_t, const TenantTrack*>> order;
    order.reserve(tenants.size());
    for (const auto& [tenant, track] : tenants) {
      order.emplace_back(tenant, &track);
    }
    // Volume-desc, tenant-id-asc: a deterministic top-N selection.
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                if (a.second->requests != b.second->requests) {
                  return a.second->requests > b.second->requests;
                }
                return a.first < b.first;
              });
    const std::size_t n = std::min(config.top_tenants, order.size());
    report.tenants.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [tenant, track] = order[i];
      TenantOutcome out;
      out.tenant = tenant;
      out.tenant_class = track->tenant_class;
      out.requests = track->requests;
      out.completed = track->completed;
      out.missed = track->missed;
      std::vector<double> lat = track->latencies;
      out.p50_s = autoscale::duration_percentile(lat, 50.0);
      out.p95_s = autoscale::duration_percentile(lat, 95.0);
      out.p99_s = autoscale::duration_percentile(lat, 99.0);
      const double target = config.slo.latency_s[static_cast<std::size_t>(
          track->tenant_class)];
      std::uint64_t within = 0;
      for (const double l : track->latencies) {
        if (l <= target) ++within;
      }
      const std::uint64_t judged = track->completed + track->missed;
      out.slo_attainment =
          judged == 0 ? 1.0
                      : static_cast<double>(within) /
                            static_cast<double>(judged);
      report.tenants.push_back(out);
    }
  }
  return report;
}

}  // namespace mdtask::service
