#include "mdtask/service/sim_service.h"

#include <gtest/gtest.h>

#include "mdtask/trace/chrome_export.h"

namespace mdtask::service {
namespace {

ServiceSimConfig quick_config() {
  ServiceSimConfig config;
  config.traffic.duration_s = 20.0;
  config.traffic.rate_per_s = 40.0;
  config.traffic.tenants = 200;
  config.servers = 8;
  return config;
}

TEST(SimServiceTest, ReportCountsAreConsistent) {
  const ServiceSimReport report = simulate_service(quick_config());
  ASSERT_GT(report.requests, 100u);
  EXPECT_EQ(report.admitted + report.rejected, report.requests);
  // Every admitted request resolves by the end of the run.
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_GE(report.horizon_s, 0.0);
  EXPECT_GT(report.busy_time_s, 0.0);
  EXPECT_GT(report.engine_jobs, 0u);
  // Cache hits and joins never reach the engine.
  EXPECT_EQ(report.batched_requests + report.cache_hits + report.dedup_joins,
            report.completed);
  std::uint64_t class_completed = 0;
  for (const ClassOutcome& out : report.classes) {
    class_completed += out.completed;
    EXPECT_LE(out.p50_s, out.p95_s);
    EXPECT_LE(out.p95_s, out.p99_s);
    EXPECT_LE(out.p99_s, out.max_s + 1e-12);
    EXPECT_GE(out.slo_attainment, 0.0);
    EXPECT_LE(out.slo_attainment, 1.0);
  }
  EXPECT_EQ(class_completed, report.completed);
}

TEST(SimServiceTest, SameSeedIsByteIdentical) {
  const ServiceSimConfig config = quick_config();
  trace::Tracer tracer_a;
  tracer_a.set_enabled(true);
  trace::Tracer tracer_b;
  tracer_b.set_enabled(true);
  ServiceSimConfig with_a = config;
  with_a.tracer = &tracer_a;
  ServiceSimConfig with_b = config;
  with_b.tracer = &tracer_b;

  const ServiceSimReport a = simulate_service(with_a);
  const ServiceSimReport b = simulate_service(with_b);
  ASSERT_EQ(a.log.size(), b.log.size());
  ASSERT_FALSE(a.log.empty());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i], b.log[i]) << "log line " << i;
  }
  EXPECT_EQ(a.engine_jobs, b.engine_jobs);
  EXPECT_EQ(a.completed, b.completed);
  // The mirrored traces are byte-identical too.
  EXPECT_EQ(trace::to_chrome_json(tracer_a), trace::to_chrome_json(tracer_b));
}

TEST(SimServiceTest, DifferentSeedsDiverge) {
  ServiceSimConfig config = quick_config();
  const ServiceSimReport a = simulate_service(config);
  config.traffic.seed ^= 1;
  const ServiceSimReport b = simulate_service(config);
  EXPECT_NE(a.log, b.log);
}

TEST(SimServiceTest, CacheOnUsesStrictlyFewerEngineJobs) {
  ServiceSimConfig config = quick_config();
  config.traffic.repeat_fraction = 0.8;  // repeat-heavy workload
  config.traffic.hot_keys = 8;
  config.service.cache.enabled = true;
  const ServiceSimReport cached = simulate_service(config);
  config.service.cache.enabled = false;
  const ServiceSimReport uncached = simulate_service(config);

  EXPECT_GT(cached.cache_hits + cached.dedup_joins, 0u);
  EXPECT_LT(cached.engine_jobs, uncached.engine_jobs);
  // Same demand either way.
  EXPECT_EQ(cached.requests, uncached.requests);
}

TEST(SimServiceTest, InteractiveClassWinsUnderSaturation) {
  ServiceSimConfig config;
  config.traffic.duration_s = 30.0;
  config.traffic.rate_per_s = 120.0;
  config.traffic.tenants = 500;
  config.traffic.repeat_fraction = 0.0;  // every request costs a job
  config.traffic.mean_input_bytes = 4ull << 20;
  config.service.batch.enabled = false;
  config.service.admission.max_global_requests = 100000;
  config.service.admission.max_tenant_requests = 100000;
  config.service.admission.max_global_bytes = ~0ull;
  config.servers = 4;  // heavily oversubscribed

  const ServiceSimReport report = simulate_service(config);
  const ClassOutcome& interactive =
      report.classes[static_cast<std::size_t>(TenantClass::kInteractive)];
  const ClassOutcome& best_effort =
      report.classes[static_cast<std::size_t>(TenantClass::kBestEffort)];
  ASSERT_GT(interactive.completed, 50u);
  ASSERT_GT(best_effort.completed, 50u);
  // Weighted DRR gives the interactive class dramatically better tail
  // latency when the pool saturates.
  EXPECT_LT(interactive.p95_s, best_effort.p95_s);
}

TEST(SimServiceTest, OverloadSheds) {
  ServiceSimConfig config = quick_config();
  config.traffic.rate_per_s = 200.0;
  config.traffic.repeat_fraction = 0.0;
  config.traffic.mean_input_bytes = 8ull << 20;
  config.service.admission.max_global_requests = 16;
  config.servers = 2;
  const ServiceSimReport report = simulate_service(config);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(report.admitted + report.rejected, report.requests);
  EXPECT_EQ(report.completed, report.admitted);
  bool saw_reject_line = false;
  for (const auto& line : report.log) {
    if (line.find(" reject ") != std::string::npos) {
      saw_reject_line = true;
      break;
    }
  }
  EXPECT_TRUE(saw_reject_line);
}

TEST(SimServiceTest, AutoscaleGrowsThePoolUnderDiurnalLoad) {
  ServiceSimConfig config;
  config.traffic.duration_s = 60.0;
  config.traffic.rate_per_s = 80.0;
  config.traffic.pattern = ArrivalPattern::kDiurnal;
  config.traffic.repeat_fraction = 0.2;
  config.traffic.mean_input_bytes = 4ull << 20;
  config.service.admission.max_global_requests = 100000;
  config.service.admission.max_tenant_requests = 100000;
  config.service.admission.max_global_bytes = ~0ull;
  config.servers = 2;
  config.autoscale_enabled = true;
  config.autoscale.min_pool = 2;
  config.autoscale.max_pool = 64;
  config.autoscale.cooldown_s = 1.0;

  const ServiceSimReport report = simulate_service(config);
  EXPECT_GT(report.scale_ups, 0u);
  EXPECT_GT(report.peak_servers, report.initial_servers);
  EXPECT_EQ(report.completed, report.admitted);
  bool saw_scale_line = false;
  for (const auto& line : report.log) {
    if (line.find(" scale-up ") != std::string::npos) {
      saw_scale_line = true;
      break;
    }
  }
  EXPECT_TRUE(saw_scale_line);
}

TEST(SimServiceTest, BatchingReducesEngineJobs) {
  ServiceSimConfig config = quick_config();
  config.service.cache.enabled = false;  // isolate the batching effect
  config.traffic.repeat_fraction = 0.6;
  config.service.batch.max_batch = 8;
  config.service.batch.max_delay_s = 0.05;
  const ServiceSimReport batched = simulate_service(config);
  config.service.batch.enabled = false;
  const ServiceSimReport unbatched = simulate_service(config);
  EXPECT_LT(batched.engine_jobs, unbatched.engine_jobs);
  EXPECT_EQ(batched.completed, unbatched.completed);
}

// ---------------------------------------------------------------------------
// Reliability layer in the DES twin

/// Chaos rates and the full reliability ladder over a pressured
/// schedule (the bench_service --chaos regime, shrunk for test time).
ServiceSimConfig chaos_config(bool reliable) {
  ServiceSimConfig config = quick_config();
  config.traffic.pattern = ArrivalPattern::kDiurnal;
  config.traffic.duration_s = 30.0;
  config.traffic.mean_input_bytes = 4ull << 20;
  config.servers = 6;
  config.service.chaos.enabled = true;
  config.service.chaos.fail_rate = 0.08;
  config.service.chaos.slow_rate = 0.15;
  config.service.chaos.hang_rate = 0.05;
  if (reliable) {
    config.service.reliability.deadline.enabled = true;
    config.service.reliability.retry.enabled = true;
    config.service.reliability.brownout.enabled = true;
  }
  return config;
}

TEST(SimServiceReliabilityTest, ChaosRunsAreByteIdenticalPerSeed) {
  fault::RecoveryLog log_a;
  fault::RecoveryLog log_b;
  ServiceSimConfig config_a = chaos_config(/*reliable=*/true);
  config_a.recovery_log = &log_a;
  ServiceSimConfig config_b = chaos_config(/*reliable=*/true);
  config_b.recovery_log = &log_b;
  const ServiceSimReport a = simulate_service(config_a);
  const ServiceSimReport b = simulate_service(config_b);
  ASSERT_FALSE(a.log.empty());
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(a.log[i], b.log[i]) << "log line " << i;
  }
  EXPECT_GT(a.chaos_failures, 0u);
  EXPECT_GT(a.retries, 0u);
  ASSERT_GT(log_a.size(), 0u);
  EXPECT_EQ(log_a.canonical(), log_b.canonical());
}

TEST(SimServiceReliabilityTest, ReliabilityOnBeatsOffForInteractiveSlo) {
  const ServiceSimReport off = simulate_service(chaos_config(false));
  const ServiceSimReport on = simulate_service(chaos_config(true));
  const auto interactive =
      static_cast<std::size_t>(TenantClass::kInteractive);
  // The acceptance criterion: at the same chaos seed, the reliability
  // layer strictly raises interactive SLO attainment.
  EXPECT_GT(on.classes[interactive].slo_attainment,
            off.classes[interactive].slo_attainment);
  // Retry converted chaos failures into completions.
  EXPECT_GT(off.classes[interactive].failed, 0u);
  EXPECT_EQ(on.classes[interactive].failed, 0u);
  // The reaper bound: nothing ever resolved past its deadline.
  EXPECT_DOUBLE_EQ(on.max_deadline_overrun_s, 0.0);
}

TEST(SimServiceReliabilityTest, EveryRequestIsAccountedForUnderChaos) {
  const ServiceSimReport report = simulate_service(chaos_config(true));
  std::uint64_t accounted = 0;
  for (const ClassOutcome& out : report.classes) {
    accounted += out.completed + out.rejected + out.deadline_expired +
                 out.brownout_shed + out.failed;
    EXPECT_GE(out.slo_attainment, 0.0);
    EXPECT_LE(out.slo_attainment, 1.0);
  }
  EXPECT_EQ(accounted, report.requests);
}

TEST(SimServiceReliabilityTest, TenantTableIsObservationOnly) {
  ServiceSimConfig config = quick_config();
  const ServiceSimReport plain = simulate_service(config);
  config.top_tenants = 8;
  const ServiceSimReport tracked = simulate_service(config);
  // Tracking the top tenants changes no serving decision: the logs are
  // byte-identical and only the tenants table appears.
  ASSERT_EQ(plain.log.size(), tracked.log.size());
  for (std::size_t i = 0; i < plain.log.size(); ++i) {
    ASSERT_EQ(plain.log[i], tracked.log[i]) << "log line " << i;
  }
  EXPECT_TRUE(plain.tenants.empty());
  ASSERT_EQ(tracked.tenants.size(), 8u);
  // Ordered by volume desc, tenant id asc; outcomes reconcile.
  for (std::size_t i = 1; i < tracked.tenants.size(); ++i) {
    const TenantOutcome& prev = tracked.tenants[i - 1];
    const TenantOutcome& cur = tracked.tenants[i];
    EXPECT_TRUE(prev.requests > cur.requests ||
                (prev.requests == cur.requests && prev.tenant < cur.tenant));
  }
  for (const TenantOutcome& tenant : tracked.tenants) {
    EXPECT_GT(tenant.requests, 0u);
    EXPECT_LE(tenant.completed + tenant.missed, tenant.requests);
    EXPECT_GE(tenant.slo_attainment, 0.0);
    EXPECT_LE(tenant.slo_attainment, 1.0);
  }
}

}  // namespace
}  // namespace mdtask::service
