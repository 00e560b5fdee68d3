// Serving-layer latency and SLO study (docs/SERVICE.md).
//
// Replays seeded multi-tenant traffic schedules through the DES
// serving stack — admission control, weighted fair-share, request
// batching, result cache — against a simulated engine pool, and prints
// the tables the subsystem is judged on:
//
//  * per-tenant-class p50/p95/p99 completion latency and SLO
//    attainment under a diurnal and a bursty arrival schedule,
//  * the cache/dedup effect: engine jobs with the result cache on vs
//    off over a repeat-heavy workload,
//  * composition with the autoscale loop: the same diurnal schedule on
//    a fixed pool vs a TargetUtilizationPolicy-driven pool.
//
// Everything runs in virtual time from a seeded schedule, so every
// cell is byte-identical across runs and machines for the same seed.
// --json [--quick] [--out=PATH] writes BENCH_service.json (kernels are
// "service_"-prefixed: the regression gate treats them as behavioural
// and skips absolute-time comparisons).
//
// --chaos adds the reliability study: the same diurnal schedule with
// seeded fail/slow/hang chaos at the executor boundary, reliability
// layer off vs on (deadlines + retry + brownout). The chaos
// kernels ("service_chaos") are written to the JSON only under
// --chaos, so the published default BENCH_service.json is untouched.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mdtask/service/sim_service.h"

using namespace mdtask;
using namespace mdtask::service;

namespace {

ServiceSimConfig base_config(std::uint64_t seed, bool quick) {
  ServiceSimConfig config;
  config.traffic.seed = seed;
  config.traffic.duration_s = quick ? 40.0 : 120.0;
  config.traffic.rate_per_s = 80.0;
  config.traffic.tenants = quick ? 500 : 2000;
  // ~0.09 s per uncached engine job: at 80 req/s with a 30% repeat
  // fraction the pool runs ~0.8 utilized off-peak, so the diurnal peak
  // (1.8x) and the bursts (6x) genuinely queue — the regime where
  // fair-share weights and autoscaling become visible.
  config.traffic.mean_input_bytes = 4ull << 20;
  config.traffic.repeat_fraction = 0.3;
  // Wide cold keyspace (32 stores x 3 families x 200 variants): cold
  // requests rarely collide, so cache hits come from the hot keys and
  // the engine sees the cold tail for real.
  config.traffic.stores = 32;
  config.traffic.param_variants = 200;
  config.servers = 6;
  config.service.admission.max_global_requests = 1024;
  config.service.admission.max_tenant_requests = 64;
  config.service.admission.max_global_bytes = 4ull << 30;
  return config;
}

void add_class_rows(Table& table, const char* schedule,
                    const ServiceSimReport& report) {
  for (std::size_t c = 0; c < kTenantClasses; ++c) {
    const ClassOutcome& out = report.classes[c];
    table.add_row({schedule, to_string(static_cast<TenantClass>(c)),
                   std::to_string(out.requests),
                   std::to_string(out.rejected),
                   std::to_string(out.cache_hits + out.dedup_joins),
                   Table::fmt(out.p50_s, 4), Table::fmt(out.p95_s, 4),
                   Table::fmt(out.p99_s, 4),
                   Table::fmt(out.slo_attainment, 4)});
  }
}

struct JsonEntry {
  std::string kernel;
  std::string policy;
  std::string unit;
  double ns_per_unit = 0.0;
};

void write_json(const std::vector<JsonEntry>& entries,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"mdtask-bench-service-v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    out << "    {\"kernel\": \"" << e.kernel << "\", \"policy\": \""
        << e.policy << "\", \"unit\": \"" << e.unit
        << "\", \"ns_per_unit\": " << e.ns_per_unit << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, quick = false, chaos = false;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      ++i;  // handled by parse_seed
    } else {
      std::cerr << "usage: bench_service [--seed N] [--json] [--quick] "
                   "[--chaos] [--out=PATH]\n";
      return 2;
    }
  }
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  bench::print_seed(seed);
  std::vector<JsonEntry> entries;

  // ---- Per-class latency / SLO under diurnal and bursty arrivals ----
  Table slo_table(
      "Serving-layer latency by tenant class (weighted fair-share "
      "8:3:1, batching on, cache on, 6 engine servers)");
  slo_table.set_header({"schedule", "class", "requests", "shed",
                        "hits+joins", "p50_s", "p95_s", "p99_s", "slo"});
  std::vector<std::pair<const char*, ServiceSimReport>> slo_reports;
  for (const auto pattern :
       {ArrivalPattern::kDiurnal, ArrivalPattern::kBursty}) {
    ServiceSimConfig config = base_config(seed, quick);
    config.traffic.pattern = pattern;
    // Observation only (tenant tracking changes no serving decision):
    // the per-class rows stay byte-identical with the pre-tenant-table
    // tables for the same seed.
    config.top_tenants = 8;
    ServiceSimReport report = simulate_service(config);
    add_class_rows(slo_table, to_string(pattern), report);
    for (std::size_t c = 0; c < kTenantClasses; ++c) {
      entries.push_back(
          {std::string("service_") + to_string(pattern),
           to_string(static_cast<TenantClass>(c)), "p95_request",
           report.classes[c].p95_s * 1e9});
    }
    slo_reports.emplace_back(to_string(pattern), std::move(report));
  }
  bench::emit(slo_table, "service_slo");

  // ---- Per-tenant SLO: the top tenants by arrival volume ----
  Table tenant_table(
      "Per-tenant SLO attainment (top 8 tenants by volume per "
      "schedule; same runs as the per-class table)");
  tenant_table.set_header({"schedule", "tenant", "class", "requests",
                           "completed", "missed", "p50_s", "p95_s",
                           "p99_s", "slo"});
  for (const auto& [schedule, report] : slo_reports) {
    for (const TenantOutcome& t : report.tenants) {
      tenant_table.add_row(
          {schedule, std::to_string(t.tenant), to_string(t.tenant_class),
           std::to_string(t.requests), std::to_string(t.completed),
           std::to_string(t.missed), Table::fmt(t.p50_s, 4),
           Table::fmt(t.p95_s, 4), Table::fmt(t.p99_s, 4),
           Table::fmt(t.slo_attainment, 4)});
    }
  }
  bench::emit(tenant_table, "service_tenants");

  // ---- Result cache on/off over a repeat-heavy workload ----
  Table cache_table(
      "Result cache and in-flight dedup (poisson arrivals, 80% repeat "
      "fraction, 16 hot keys)");
  cache_table.set_header({"cache", "requests", "engine_jobs",
                          "batched_requests", "cache_hits", "dedup_joins",
                          "jobs_per_1k_requests"});
  for (const bool enabled : {true, false}) {
    ServiceSimConfig config = base_config(seed, quick);
    config.traffic.repeat_fraction = 0.8;
    config.traffic.hot_keys = 16;
    config.service.cache.enabled = enabled;
    const ServiceSimReport report = simulate_service(config);
    cache_table.add_row(
        {enabled ? "on" : "off", std::to_string(report.requests),
         std::to_string(report.engine_jobs),
         std::to_string(report.batched_requests),
         std::to_string(report.cache_hits),
         std::to_string(report.dedup_joins),
         Table::fmt(1000.0 * static_cast<double>(report.engine_jobs) /
                        static_cast<double>(report.requests),
                    1)});
    entries.push_back({"service_cache", enabled ? "on" : "off",
                       "jobs_per_1k_requests",
                       1000.0 * static_cast<double>(report.engine_jobs) /
                           static_cast<double>(report.requests)});
  }
  bench::emit(cache_table, "service_cache");

  // ---- Composition with the autoscale control loop ----
  Table scale_table(
      "Fixed pool vs autoscaled pool (diurnal schedule, target "
      "utilization 0.8)");
  scale_table.set_header({"pool", "servers", "peak", "scale_ups",
                          "scale_downs", "interactive_p95_s",
                          "best_effort_p95_s", "slo_all"});
  for (const bool autoscale : {false, true}) {
    ServiceSimConfig config = base_config(seed, quick);
    config.traffic.pattern = ArrivalPattern::kDiurnal;
    config.traffic.rate_per_s = 120.0;
    config.servers = autoscale ? 4 : 6;
    config.autoscale_enabled = autoscale;
    config.autoscale.min_pool = 4;
    config.autoscale.max_pool = 64;
    config.autoscale.cooldown_s = 2.0;
    const ServiceSimReport report = simulate_service(config);
    double within = 0.0, judged = 0.0;
    for (const ClassOutcome& out : report.classes) {
      within += out.slo_attainment *
                static_cast<double>(out.completed + out.rejected);
      judged += static_cast<double>(out.completed + out.rejected);
    }
    const double slo_all = judged > 0.0 ? within / judged : 1.0;
    scale_table.add_row(
        {autoscale ? "autoscaled" : "fixed",
         std::to_string(report.initial_servers),
         std::to_string(report.peak_servers),
         std::to_string(report.scale_ups),
         std::to_string(report.scale_downs),
         Table::fmt(
             report.classes[static_cast<std::size_t>(
                                TenantClass::kInteractive)]
                 .p95_s,
             4),
         Table::fmt(
             report.classes[static_cast<std::size_t>(
                                TenantClass::kBestEffort)]
                 .p95_s,
             4),
         Table::fmt(slo_all, 4)});
    entries.push_back({"service_autoscale",
                       autoscale ? "autoscaled" : "fixed", "slo_x1e9",
                       slo_all * 1e9});
  }
  bench::emit(scale_table, "service_autoscale");

  // ---- Chaos study: reliability layer off vs on under injected faults ----
  if (chaos) {
    Table chaos_table(
        "Chaos study (diurnal schedule; executor chaos fail 8% / slow "
        "15% / hang 5%; reliability = deadlines + retry + brownout)");
    chaos_table.set_header({"reliability", "class", "requests",
                            "completed", "failed", "expired", "shed",
                            "p95_s", "slo"});
    for (const bool reliable : {false, true}) {
      ServiceSimConfig config = base_config(seed, quick);
      config.traffic.pattern = ArrivalPattern::kDiurnal;
      config.service.chaos.enabled = true;
      config.service.chaos.seed = seed;
      config.service.chaos.fail_rate = 0.08;
      config.service.chaos.slow_rate = 0.15;
      config.service.chaos.hang_rate = 0.05;
      if (reliable) {
        config.service.reliability.deadline.enabled = true;
        config.service.reliability.retry.enabled = true;
        config.service.reliability.brownout.enabled = true;
      }
      const ServiceSimReport report = simulate_service(config);
      for (std::size_t c = 0; c < kTenantClasses; ++c) {
        const ClassOutcome& out = report.classes[c];
        chaos_table.add_row(
            {reliable ? "on" : "off",
             to_string(static_cast<TenantClass>(c)),
             std::to_string(out.requests), std::to_string(out.completed),
             std::to_string(out.failed),
             std::to_string(out.deadline_expired),
             std::to_string(out.rejected + out.brownout_shed),
             Table::fmt(out.p95_s, 4), Table::fmt(out.slo_attainment, 4)});
        entries.push_back({"service_chaos",
                           std::string(reliable ? "on-" : "off-") +
                               to_string(static_cast<TenantClass>(c)),
                           "slo_x1e9", out.slo_attainment * 1e9});
      }
      std::printf(
          "  reliability %s: retries=%llu chaos_failures=%llu "
          "chaos_delays=%llu stale_served=%llu "
          "max_deadline_overrun_s=%.6f\n",
          reliable ? "on " : "off",
          static_cast<unsigned long long>(report.retries),
          static_cast<unsigned long long>(report.chaos_failures),
          static_cast<unsigned long long>(report.chaos_delays),
          static_cast<unsigned long long>(report.stale_served),
          report.max_deadline_overrun_s);
    }
    bench::emit(chaos_table, "service_chaos");
  }

  std::printf("(all cells are virtual-time DES replays of the seeded "
              "schedule: byte-identical per seed)\n");

  if (json) {
    write_json(entries, out_path);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
