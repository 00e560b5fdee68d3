// Core-utilization profiles of the Leaflet Finder compute phase
// (observability companion to Fig. 7): the per-bucket busy fraction of
// the allocation over the schedule, showing the wave structure and the
// straggler tail that caps framework speedups.
//
// With `--trace out.json`, every replay additionally mirrors its
// scheduler dispatches and per-core task holds into a Chrome/Perfetto
// trace — one process group per framework, one thread track per
// simulated core — and prints the span summary table. Virtual-time
// stamps make the trace identical across runs.
#include <cstring>

#include "bench_common.h"
#include "mdtask/autoscale/task_wave.h"
#include "mdtask/perf/workloads.h"
#include "mdtask/trace/chrome_export.h"
#include "mdtask/trace/summary.h"

using namespace mdtask;
using namespace mdtask::perf;

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  const std::size_t churn = bench::parse_churn(argc, argv);
  const bool adaptive = bench::parse_adaptive(argc, argv);
  bench::print_seed(seed);
  trace::Tracer& tracer = trace::Tracer::global();
  if (trace_path != nullptr) tracer.set_enabled(true);

  const auto costs = python_pipeline_costs(host_kernel_costs());
  const auto cluster = bench::wrangler_alloc(256);
  const LfWorkload workload{524288, 3520000, 1024};

  Table table("Core utilization over the LF compute phase "
              "(524k atoms, 256 cores, 12 buckets)");
  table.set_header({"framework", "approach", "bucket_profile",
                    "mean_utilization"});
  for (const auto& model : {mpi_model(), spark_model(), dask_model()}) {
    const std::uint32_t pid =
        trace_path != nullptr ? tracer.process(model.name) : 0;
    for (int approach : {2, 3, 4}) {
      // Trace only one approach per framework to keep the export
      // readable (256 core tracks per process group already).
      const bool traced = trace_path != nullptr && approach == 3;
      const auto timeline = leaflet_utilization_timeline(
          model, cluster, approach, workload, costs, 12,
          traced ? &tracer : nullptr, pid, seed);
      if (timeline.empty()) {
        table.add_row({model.name, std::to_string(approach), "infeasible",
                       "-"});
        continue;
      }
      // Render each bucket as a 0-9 digit for a compact profile.
      std::string profile;
      double mean = 0.0;
      for (double u : timeline) {
        profile += static_cast<char>(
            '0' + std::min(9, static_cast<int>(u * 10.0)));
        mean += u;
      }
      mean /= static_cast<double>(timeline.size());
      table.add_row({model.name, std::to_string(approach), profile,
                     Table::fmt(mean, 3)});
    }
  }
  bench::emit(table, "utilization");
  std::printf("(profile digits: tenths of the allocation busy per "
              "time bucket; trailing low digits are the straggler tail)\n");

  {
    // Fault-injected replay of the same task wave: background fault
    // rates drawn from the plan seed, recovered by each engine's native
    // policy. Pure virtual time — byte-identical per seed. The CSV is
    // a recovery-behaviour record, not a timing baseline (regression
    // tooling skips fault-injection entries).
    Table faults("Task-wave recovery under injected faults "
                 "(1024 x 1 s tasks, 256 cores, per-engine policy)");
    faults.set_header({"engine", "completed", "faults_injected", "retries",
                       "speculative_copies", "makespan_s", "vs_fault_free"});
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.rates.node_crash = 0.002;
    plan.rates.worker_oom = 0.01;
    plan.rates.straggler = 0.02;
    plan.rates.fs_stall = 0.01;
    plan.speculation.enabled = true;
    const std::vector<double> durations(1024, 1.0);
    const double fault_free =
        autoscale::simulate_task_wave(256, durations, fault::FaultPlan{},
                                      fault::EngineId::kSpark)
            .makespan_s;
    for (auto engine :
         {fault::EngineId::kSpark, fault::EngineId::kDask,
          fault::EngineId::kRp, fault::EngineId::kMpi}) {
      const auto outcome =
          autoscale::simulate_task_wave(256, durations, plan, engine);
      faults.add_row(
          {fault::to_string(engine), outcome.completed ? "yes" : "no",
           std::to_string(outcome.faults_injected),
           std::to_string(outcome.retries),
           std::to_string(outcome.speculative_copies),
           Table::fmt(outcome.makespan_s, 2),
           Table::fmt(outcome.makespan_s / fault_free, 2) + "x"});
    }
    bench::emit(faults, "utilization_faults");
  }

  {
    // Pool size over time under a seeded membership schedule
    // (`--churn N` = N joins + N leaves per engine, drawn from --seed).
    // With churn 0 the pool is static and the table records just the
    // baseline, keeping the published CSVs unchanged.
    Table pool("Pool size over the task wave "
               "(1024 x 1 s tasks, 256 cores, churn " +
               std::to_string(churn) + ")");
    pool.set_header({"engine", "joins", "leaves", "preempted",
                     "pool_timeline"});
    const std::vector<double> durations(1024, 1.0);
    const std::uint32_t pool_pid =
        trace_path != nullptr ? tracer.process("elastic-pool") : 0;
    for (auto engine :
         {fault::EngineId::kSpark, fault::EngineId::kDask,
          fault::EngineId::kRp, fault::EngineId::kMpi}) {
      fault::FaultPlan plan;
      plan.seed = seed;
      const auto membership = fault::churn_plan(
          seed, engine, churn, churn, /*horizon_s=*/4.0);
      // With a tracer, membership events mirror as elastic:* instants
      // on a per-engine track (virtual time, so deterministic).
      fault::RecoveryLog log;
      if (trace_path != nullptr) {
        log.attach_tracer(&tracer,
                          tracer.thread(pool_pid, fault::to_string(engine)));
      }
      std::vector<autoscale::PoolSample> timeline;
      const auto outcome = autoscale::simulate_task_wave(
          256, durations, plan, engine, &log, &membership, &timeline);
      std::string profile;
      if (membership.empty()) {
        profile = "256 throughout";
      } else {
        for (const auto& sample : timeline) {
          if (!profile.empty()) profile += " -> ";
          profile += std::to_string(sample.servers) + "@" +
                     Table::fmt(sample.at_s, 1) + "s";
        }
      }
      pool.add_row({fault::to_string(engine),
                    std::to_string(outcome.joins),
                    std::to_string(outcome.leaves),
                    std::to_string(outcome.preempted), profile});
    }
    bench::emit(pool, "utilization_pool");
  }

  if (adaptive) {
    // Policy-driven counterpart of the pool-size table: the same wave on
    // a quarter-size pool with the AutoscaleController deciding when to
    // grow back toward 256 (MPI records rigid vetoes and stays put).
    // Same virtual-time determinism as the scheduled-churn table.
    Table pool("Adaptive pool size over the task wave "
               "(1024 x 1 s tasks, 64 -> <=256 cores, policy-driven)");
    pool.set_header({"engine", "scale_ups", "scale_downs", "vetoes",
                     "makespan_s", "pool_timeline"});
    const std::vector<double> durations(1024, 1.0);
    autoscale::AdaptiveConfig control;
    control.enabled = true;
    control.tick_interval_s = 0.5;  // virtual seconds
    control.utilization.low_watermark = 0.20;
    control.utilization.cooldown_s = 1.0;
    control.utilization.max_pool = 256;
    control.utilization.max_step = 64;
    for (auto engine :
         {fault::EngineId::kSpark, fault::EngineId::kDask,
          fault::EngineId::kRp, fault::EngineId::kMpi}) {
      fault::FaultPlan plan;
      plan.seed = seed;
      std::vector<autoscale::PoolSample> timeline;
      const auto outcome = autoscale::simulate_task_wave(
          64, durations, plan, engine, nullptr, nullptr, &timeline, control);
      std::string profile;
      for (const auto& sample : timeline) {
        if (!profile.empty()) profile += " -> ";
        profile += std::to_string(sample.servers) + "@" +
                   Table::fmt(sample.at_s, 1) + "s";
      }
      pool.add_row({fault::to_string(engine),
                    std::to_string(outcome.scale_ups),
                    std::to_string(outcome.scale_downs),
                    std::to_string(outcome.rigid_vetoes),
                    Table::fmt(outcome.makespan_s, 2), profile});
    }
    bench::emit(pool, "utilization_pool_adaptive");
  }

  if (trace_path != nullptr) {
    trace::ChromeExportOptions options;
    options.sort_events = true;  // virtual-time replay: deterministic
    if (auto status = trace::write_chrome_trace(tracer, trace_path, options);
        !status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.error().to_string().c_str());
      return 1;
    }
    std::printf("\n%s\n(trace: %s — open in Perfetto / chrome://tracing)\n",
                trace::to_table(trace::summarize(tracer),
                                "Span summary (approach 3 replays)")
                    .render()
                    .c_str(),
                trace_path);
  }
  return 0;
}
