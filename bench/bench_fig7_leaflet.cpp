// Fig. 7 — Leaflet Finder: runtimes and speedups of the four
// architectural approaches for Spark, Dask and MPI4py over the
// 131k/262k/524k/4M-atom membranes at 32..256 cores on Wrangler.
//
// Expected shape: approach 1 worst and limited to small systems (Dask's
// broadcast dies at 524k; everyone dies at 4M); approach 3 ~20% better
// than approach 2 for Spark/Dask and able to run 4M with the 42k-task
// repartition (except Dask: worker restarts); tree-search (approach 4)
// slower than 3 for 131k/262k, faster for 524k/4M; MPI speedup almost
// linear, Spark/Dask capped near 5.
// With `--trace out.json`, the 256-core approach-3 cell of each
// framework is replayed once more with virtual-time span recording and
// exported as a Chrome/Perfetto trace (one process group per framework,
// one thread track per simulated core).
// `--stream` appends the streamed-I/O addendum: the approach-3 131k
// task wave replayed out-of-core over Wrangler's FileSystemModel, each
// task first pulling its `--shard-frames` shard through the shared
// filesystem — without prefetch (read and compute strictly serialized
// per core: the I/O-straggler regime) and with double-buffered
// prefetch. The speedup column is the prefetch win; past the
// filesystem's max_streams() the contention wall compresses it.
#include <cstring>

#include "bench_common.h"
#include "mdtask/perf/workloads.h"
#include "mdtask/stream/sim_io.h"
#include "mdtask/trace/chrome_export.h"
#include "mdtask/trace/summary.h"
#include "mdtask/traj/catalog.h"

using namespace mdtask;
using namespace mdtask::perf;

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  const bool stream = bench::parse_stream(argc, argv);
  const std::size_t shard_frames = bench::parse_shard_frames(argc, argv);
  bench::print_seed(seed);
  trace::Tracer& tracer = trace::Tracer::global();
  if (trace_path != nullptr) tracer.set_enabled(true);

  const auto costs = python_pipeline_costs(host_kernel_costs());
  const FrameworkModel models[] = {spark_model(), dask_model(), mpi_model()};
  const char* approach_names[] = {
      "1: Broadcast & 1-D", "2: Task API & 2-D",
      "3: Parallel Connected Components", "4: Tree-Search"};

  Table table("Fig. 7: Leaflet Finder runtimes (Wrangler)");
  table.set_header({"approach", "framework", "atoms", "cores/nodes",
                    "runtime_s", "speedup_vs_32"});
  for (int approach = 1; approach <= 4; ++approach) {
    for (const auto& model : models) {
      for (traj::LfSize size : traj::all_lf_sizes()) {
        // The paper repartitions the 4M dataset into 42k tasks for
        // approach 3 (cdist memory); all other cells use 1024 tasks.
        const bool is_4m = size == traj::LfSize::k4M;
        const LfWorkload workload{
            traj::lf_atoms(size), traj::lf_paper_edges(size),
            approach == 3 && is_4m ? std::size_t{42435}
                                   : std::size_t{1024}};
        double base = 0.0;
        for (std::size_t cores : {32u, 64u, 128u, 256u}) {
          const auto cluster = bench::wrangler_alloc(cores);
          const auto outcome = simulate_leaflet(model, cluster, approach,
                                                workload, costs, seed);
          const std::string alloc =
              std::to_string(cores) + "/" + std::to_string(cluster.nodes);
          if (!outcome.feasible) {
            table.add_row({approach_names[approach - 1], model.name,
                           traj::to_string(size), alloc, "FAIL",
                           outcome.failure});
            break;  // larger allocations fail the same way
          }
          if (cores == 32) base = outcome.makespan_s;
          table.add_row({approach_names[approach - 1], model.name,
                         traj::to_string(size), alloc,
                         bench::fmt_runtime(outcome.makespan_s),
                         Table::fmt(base / outcome.makespan_s, 2)});
          // One traced replay per framework: the largest feasible
          // approach-3 allocation on the 131k system (bounded export).
          if (trace_path != nullptr && approach == 3 && cores == 256 &&
              size == traj::LfSize::k131k) {
            leaflet_utilization_timeline(model, cluster, approach, workload,
                                         costs, 12, &tracer,
                                         tracer.process(model.name), seed);
          }
        }
      }
    }
  }
  bench::emit(table, "fig7_leaflet");

  if (stream) {
    // Streamed-I/O addendum: the exact approach-3 131k task durations
    // Fig. 7 schedules, each task now reading one `shard_frames` shard
    // of the membrane trajectory through Wrangler's FileSystemModel
    // before computing. Serial read->compute per core is the
    // I/O-straggler regime; double-buffered prefetch overlaps the next
    // shard read with the current compute.
    const LfWorkload workload{traj::lf_atoms(traj::LfSize::k131k),
                              traj::lf_paper_edges(traj::LfSize::k131k),
                              1024};
    const std::uint64_t shard_bytes =
        static_cast<std::uint64_t>(shard_frames) * workload.atoms * 12;
    Table io("Fig. 7 addendum: streamed shards vs in-memory "
             "(approach 3, 131k atoms, Wrangler filesystem model)");
    io.set_header({"cores/nodes", "tasks", "shard_MB", "no_prefetch_s",
                   "io_wait_pct", "prefetch_s", "prefetch_wait_pct",
                   "speedup"});
    for (std::size_t cores : {4u, 8u, 16u, 32u, 64u}) {
      const auto cluster = bench::wrangler_alloc(cores);
      const auto durations =
          leaflet_task_durations(mpi_model(), cluster, 3, workload, costs);
      std::vector<stream::StreamTask> tasks(durations.size());
      for (std::size_t t = 0; t < durations.size(); ++t) {
        tasks[t] = {durations[t], shard_bytes};
      }
      const auto& fs = cluster.machine.filesystem;
      stream::StreamWaveOptions serial;
      const auto cold = stream::simulate_stream_wave(cores, tasks, fs, serial);
      stream::StreamWaveOptions buffered;
      buffered.prefetch = true;
      buffered.prefetch_depth = 2;
      const auto warm =
          stream::simulate_stream_wave(cores, tasks, fs, buffered);
      io.add_row({std::to_string(cores) + "/" +
                      std::to_string(cluster.nodes),
                  std::to_string(tasks.size()),
                  Table::fmt(static_cast<double>(shard_bytes) / 1e6, 1),
                  bench::fmt_runtime(cold.makespan_s),
                  Table::fmt(100.0 * cold.io_wait_fraction(cores), 1),
                  bench::fmt_runtime(warm.makespan_s),
                  Table::fmt(100.0 * warm.io_wait_fraction(cores), 1),
                  Table::fmt(cold.makespan_s / warm.makespan_s, 2)});
    }
    bench::emit(io, "fig7_leaflet_stream");
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
    std::printf("(trace: %s — open in Perfetto / chrome://tracing)\n",
                trace_path);
  }
  return 0;
}
