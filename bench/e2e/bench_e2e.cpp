// bench_e2e — the end-to-end performance ledger.
//
// Four workloads take an analysis from generated inputs, through the
// public library APIs, to a verified answer on the four mini-engines:
//
//   psa      streamed Hausdorff PSA from one compressed .mds store.
//            Kernel-bound: the Hausdorff kernel does most of the work.
//   leaflet  streamed Leaflet Finder, approach 4 (BallTree + parallel
//            connected components), on the paper's smallest bilayer.
//            Engine-communication- and analysis-bound.
//   repex    fixed-round replica exchange. Dispatch- and barrier-bound,
//            with almost no kernel or I/O work: the bypass workload for
//            kernel and stream changes.
//   service  the live AnalysisService answering two closed-loop clients,
//            its jobs spread over the four engines in turn, with stores
//            rewritten and re-ingested while it serves. The only workload
//            that exercises admission, fair share, batching and the
//            result cache.
//
// Batch workloads are closed loops (one client, one run at a time) with
// the engines interleaved run by run, so slow host drift hits every
// engine equally. Every answer is checked against a reference built in
// set-up (or, for the service, recomputed offline after the timed
// section); a mismatch counts as a failure and the process exits 1.
//
// The gated costs are process CPU seconds (all threads), not wall time,
// scaled to a reference host by a probe timed between runs (HostSpeed).
// The benchmark shares a few vCPUs of a host with other tenants: the
// hypervisor deschedules them for a varying share of the time (steal),
// which moved wall-clock medians by 10-80% between invocations of the same
// code. CPU time excludes steal. Wall-clock medians are still reported,
// ungated, by the traced run.
//
// Untraced runs give the end-to-end metrics. `--trace DIR` runs the same
// workload with a trace::Tracer attached through the public config
// fields, alternating traced and untraced runs, writes
// DIR/<workload>.trace.json and reports the per-layer metrics instead.
// The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. See bench/e2e/README.md.
//
//   bench_e2e [--workload psa|leaflet|repex|service] [--seed N]
//             [--seconds S] [--trace DIR] [--work DIR] [--commit SHA]
//             [--quick]
//
// Without --workload every workload runs in turn (one result line each).
#include <cpuid.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/analysis/rmsd_series.h"
#include "mdtask/common/hash.h"
#include "mdtask/common/stats.h"
#include "mdtask/kernels/batch.h"
#include "mdtask/kernels/frame_pack.h"
#include "mdtask/kernels/policy.h"
#include "mdtask/repex/model.h"
#include "mdtask/service/service.h"
#include "mdtask/service/traffic.h"
#include "mdtask/stream/shard_format.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/trace/chrome_export.h"
#include "mdtask/trace/tracer.h"
#include "mdtask/traj/generators.h"
#include "mdtask/workflows/leaflet_runner.h"
#include "mdtask/workflows/psa_runner.h"
#include "mdtask/workflows/repex_runner.h"
#include "mdtask/workflows/rmsd_runner.h"

namespace {

using namespace mdtask;
using Clock = std::chrono::steady_clock;
using workflows::EngineKind;

/// Engine workers: nproc - 1 on the 4-core reference host. With 4 workers
/// plus the calling and scheduler threads the cores are oversubscribed and
/// per-engine medians moved by up to 30% between invocations.
constexpr std::size_t kWorkers = 3;
/// Set-up runs this many times per process; setup_s is the median CPU
/// seconds of one.
constexpr int kSetupRepeats = 3;
/// The seed reserved for checking a claim on inputs it was not tuned on.
constexpr std::uint64_t kHoldoutSeed = 7;

constexpr std::size_t kEngineCount = 4;
constexpr std::array<EngineKind, kEngineCount> kEngines = {
    EngineKind::kMpi, EngineKind::kSpark, EngineKind::kDask,
    EngineKind::kRp};

const char* key(EngineKind engine) {
  switch (engine) {
    case EngineKind::kMpi: return "mpi";
    case EngineKind::kSpark: return "spark";
    case EngineKind::kDask: return "dask";
    case EngineKind::kRp: return "rp";
  }
  return "?";
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds the process (every thread) has used so far.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds the calling thread has used so far.
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Wall and process CPU seconds since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();

  double wall_s() const { return since(wall0); }
  double cpu_s() const { return cpu_seconds() - cpu0; }
};

double mean_of(const std::vector<double>& xs) {
  return mdtask::mean(std::span<const double>(xs));
}

/// a / b, or 0 when b is 0 (a layer the workload never touched).
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t bytes_hash(const void* data, std::size_t size) {
  return fnv1a64(std::span<const std::uint8_t>(
      static_cast<const std::uint8_t*>(data), size));
}

std::uint64_t doubles_hash(const std::vector<double>& values) {
  return bytes_hash(values.data(), values.size() * sizeof(double));
}

/// A workload-scoped seed: the same --seed gives every workload its own,
/// reproducible input stream.
std::uint64_t derive_seed(std::uint64_t seed, const char* scope,
                          std::uint64_t index = 0) {
  return hash_combine(hash_combine(seed, fnv1a64(scope)), index);
}

// ------------------------------------------------------------- options --

struct Options {
  std::string workload;  ///< empty = every workload in turn
  std::uint64_t seed = 42;
  double seconds = 24.0;
  std::string trace_dir;  ///< empty = untraced run (end-to-end metrics)
  std::string work_dir = "bench_e2e_work";
  std::string commit = "unknown";
  bool quick = false;

  bool traced() const { return !trace_dir.empty(); }
};

// ------------------------------------------------------------- metrics --

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced invocation prints (BENCHMARK.json
/// "end_to_end"; the smoke test checks the two lists agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_cpu_s.mpi", "s"},
    {"run_cpu_s.spark", "s"},
    {"run_cpu_s.dask", "s"},
    {"run_cpu_s.rp", "s"},
    {"op_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every traced invocation prints (BENCHMARK.json
/// "per_layer"). A layer the workload does not touch reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"stream.write_MBps", "MB/s"},
    {"stream.stored_over_raw", "1"},
    {"stream.read_bytes_per_run", "B"},
    {"stream.read_amplification", "1"},
    {"stream.read_busy_share", "1"},
    {"stream.decode_MBps", "MB/s"},
    {"kernels.hausdorff_pairs_per_us", "1/us"},
    {"kernels.cutoff_pairs_per_ns", "1/ns"},
    {"kernels.pack_atoms_per_ns", "1/ns"},
    {"kernels.frame_pairs_per_run", "count"},
    {"kernels.computed_bytes_per_run", "B"},
    {"kernels.busy_share", "1"},
    {"analysis.serial_s_per_run", "s"},
    {"analysis.parallel_efficiency.mpi", "1"},
    {"analysis.parallel_efficiency.spark", "1"},
    {"analysis.parallel_efficiency.dask", "1"},
    {"analysis.parallel_efficiency.rp", "1"},
    {"analysis.cc_share", "1"},
    {"analysis.edges", "count"},
    {"engines.tasks_per_run.mpi", "count"},
    {"engines.tasks_per_run.spark", "count"},
    {"engines.tasks_per_run.dask", "count"},
    {"engines.tasks_per_run.rp", "count"},
    {"engines.shuffle_bytes_per_run.mpi", "B"},
    {"engines.shuffle_bytes_per_run.spark", "B"},
    {"engines.shuffle_bytes_per_run.dask", "B"},
    {"engines.shuffle_bytes_per_run.rp", "B"},
    {"engines.task_busy_s.mpi", "s"},
    {"engines.task_busy_s.spark", "s"},
    {"engines.task_busy_s.dask", "s"},
    {"engines.task_busy_s.rp", "s"},
    {"engines.overhead_s.mpi", "s"},
    {"engines.overhead_s.spark", "s"},
    {"engines.overhead_s.dask", "s"},
    {"engines.overhead_s.rp", "s"},
    {"engines.queue_wait_s_per_run.dask", "s"},
    {"engines.staging_s_per_run.rp", "s"},
    {"engines.db_roundtrips_per_run.rp", "count"},
    {"engines.broadcast_bytes_per_run.spark", "B"},
    {"engines.collective_s_per_run.mpi", "s"},
    {"common.pool_queue_wait_s_per_run.spark", "s"},
    {"common.pool_queue_wait_p95_s", "s"},
    {"repex.barrier_share.mpi", "1"},
    {"repex.barrier_share.spark", "1"},
    {"repex.barrier_share.dask", "1"},
    {"repex.barrier_share.rp", "1"},
    {"repex.rounds", "count"},
    {"repex.accepted", "count"},
    {"service.lookups", "count"},
    {"service.cache_hit_ratio", "1"},
    {"service.join_ratio", "1"},
    {"service.requests_per_job", "1"},
    {"service.invalidations", "count"},
    {"service.shed", "count"},
    {"service.exec_share", "1"},
    {"service.slot_busy_share", "1"},
    {"wall.run_p50_s.mpi", "s"},
    {"wall.run_p50_s.spark", "s"},
    {"wall.run_p50_s.dask", "s"},
    {"wall.run_p50_s.rp", "s"},
    {"wall.op_p50_s", "s"},
    {"wall.op_p95_s", "s"},
    {"host.probe_ms", "ms"},
    {"trace.overhead_frac", "1"},
    {"trace.unattributed_frac", "1"},
};

/// One invocation's metric values, keyed by the catalog it was built
/// from: every catalog name is printed, and setting a name outside the
/// catalog is a bench bug.
class MetricTable {
 public:
  template <std::size_t N>
  explicit MetricTable(const MetricSpec (&catalog)[N]) {
    for (const MetricSpec& spec : catalog) {
      index_[spec.name] = rows_.size();
      rows_.push_back({spec.name, spec.unit, 0.0});
    }
  }

  void set(const std::string& name, double value) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      throw std::logic_error("metric not in catalog: " + name);
    }
    rows_[it->second].value = std::isfinite(value) ? value : 0.0;
  }

  struct Row {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// What one workload invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

// ------------------------------------------------------------- tracing --

/// The traced run's collector plus the bench's own track, on which it
/// records spans around every layer call it makes itself (store writes,
/// serial replays, workflow runs, executor calls, request lifetimes).
struct TraceContext {
  trace::Tracer tracer;
  trace::Track bench;

  TraceContext() {
    tracer.set_enabled(true);
    bench = tracer.thread(tracer.process("bench"), "main");
  }

  trace::Span span(std::string name, std::string category = "bench") {
    return tracer.span(bench, std::move(name), std::move(category));
  }
};

trace::Span bench_span(TraceContext* tc, std::string name,
                       std::string category = "bench") {
  return tc != nullptr ? tc->span(std::move(name), std::move(category))
                       : trace::Span();
}

/// Span categories that attribute wall time to a layer. Envelopes (the
/// workflow's whole-run span, Spark stages, RP units, RepEx rounds,
/// ThreadPool jobs) and the bench's own bookkeeping spans are left out,
/// so the remainder is time no layer accounts for.
bool attributes_time(const std::string& category) {
  static const char* const kLayers[] = {"task",    "rank", "collective",
                                        "queue",   "staging", "io",
                                        "kernels"};
  for (const char* layer : kLayers) {
    if (category == layer) return true;
  }
  return false;
}

/// One engine run's wall time split by layer, read off its spans.
struct Layers {
  double wall_s = 0.0;
  double busy_s = 0.0;           ///< task (Spark/Dask/RP) or rank (MPI) time
  double critical_busy_s = 0.0;  ///< busiest worker's task time
  double collective_s = 0.0;     ///< MPI collective spans
  double dask_queue_s = 0.0;     ///< Dask scheduler queue-wait spans
  double spark_pool_queue_s = 0.0;  ///< Spark executor ThreadPool waits
  double staging_s = 0.0;        ///< RP staging spans
  double io_s = 0.0;             ///< io:read-shard spans
  double io_bytes = 0.0;         ///< stored bytes those reads fetched
  double covered_s = 0.0;        ///< wall time under any layer span
  std::vector<double> pool_queue_waits;  ///< every ThreadPool queue-wait (s)
};

/// Process name of every registered pid (engine spans are told apart by
/// the process track their engine registered).
std::unordered_map<std::uint32_t, std::string> process_names(
    const trace::Tracer& tracer) {
  std::unordered_map<std::uint32_t, std::string> names;
  for (const auto& entry : tracer.track_names()) {
    if (entry.is_process) names[entry.track.pid] = entry.name;
  }
  return names;
}

double arg_number(const trace::Args& args, const char* name) {
  for (const auto& [k, v] : args) {
    if (k == name) return std::strtod(v.c_str(), nullptr);
  }
  return 0.0;
}

using Interval = std::pair<double, double>;

/// Length of the union of `intervals` (sorted in place).
double union_length(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = -std::numeric_limits<double>::infinity();
  for (const auto& [s, e] : intervals) {
    const double from = std::max(s, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return covered;
}

/// Splits the window [start_us, end_us) of one run by layer.
Layers attribute(const std::vector<trace::TraceEvent>& events,
                 const std::unordered_map<std::uint32_t, std::string>& procs,
                 double start_us, double end_us) {
  Layers out;
  out.wall_s = (end_us - start_us) * 1e-6;
  using TrackKey = std::pair<std::uint32_t, std::uint32_t>;
  std::map<TrackKey, double> busy_by_track;
  // Collectives nest (allgather = gather + bcast), so they are merged
  // per rank before being subtracted from its busy time.
  std::map<TrackKey, std::vector<Interval>> collectives;
  std::vector<Interval> intervals;
  static const std::string kNone;
  for (const trace::TraceEvent& ev : events) {
    const double s = ev.start_us;
    const double e = ev.start_us + ev.dur_us;
    if (e <= start_us || s >= end_us) continue;
    const auto proc_it = procs.find(ev.track.pid);
    const std::string& proc = proc_it != procs.end() ? proc_it->second : kNone;
    const double dur = ev.dur_us * 1e-6;
    const auto track = std::make_pair(ev.track.pid, ev.track.tid);
    if (ev.category == "task" || ev.category == "rank") {
      out.busy_s += dur;
      busy_by_track[track] += dur;
    } else if (ev.category == "collective") {
      collectives[track].emplace_back(s, e);
    } else if (ev.category == "queue") {
      if (proc == "dask") {
        out.dask_queue_s += dur;
      } else {
        out.pool_queue_waits.push_back(dur);
        if (proc == "spark") out.spark_pool_queue_s += dur;
      }
    } else if (ev.category == "staging") {
      out.staging_s += dur;
    } else if (ev.name == "io:read-shard") {
      out.io_s += dur;
      out.io_bytes += arg_number(ev.args, "stored_bytes");
    }
    if (attributes_time(ev.category)) {
      intervals.emplace_back(std::max(s, start_us), std::min(e, end_us));
    }
  }
  // Collectives run inside the rank span: waiting, not computing.
  for (auto& [track, spans] : collectives) {
    const double waiting = union_length(spans) * 1e-6;
    out.collective_s += waiting;
    out.busy_s -= waiting;
    busy_by_track[track] -= waiting;
  }
  for (const auto& [track, busy] : busy_by_track) {
    out.critical_busy_s = std::max(out.critical_busy_s, busy);
  }
  out.covered_s = union_length(intervals) * 1e-6;
  return out;
}

/// Per-engine samples the traced runs collect: layer splits and the
/// engine's own counters.
struct EngineSamples {
  std::array<std::vector<Layers>, kEngineCount> layers;
  std::array<std::vector<workflows::RunMetrics>, kEngineCount> counters;
  std::array<std::vector<double>, kEngineCount> traced_walls;
  std::array<std::vector<double>, kEngineCount> untraced_walls;
  /// RepEx only: barrier-wait seconds over run wall, per traced run.
  std::array<std::vector<double>, kEngineCount> barrier_shares;
};

double mean_read_bytes(const EngineSamples& samples) {
  std::vector<double> xs;
  for (const auto& runs : samples.layers) {
    for (const Layers& l : runs) xs.push_back(l.io_bytes);
  }
  return mean_of(xs);
}

template <typename F>
double mean_over(const std::vector<workflows::RunMetrics>& runs, F field) {
  std::vector<double> xs;
  for (const auto& r : runs) xs.push_back(static_cast<double>(field(r)));
  return mean_of(xs);
}

template <typename F>
double mean_over(const std::vector<Layers>& runs, F field) {
  std::vector<double> xs;
  for (const auto& r : runs) xs.push_back(field(r));
  return mean_of(xs);
}

/// The engines, common, stream-read and trace per-layer metrics shared by
/// every workload. `extra_pool_waits` adds ThreadPool waits recorded
/// outside engine runs (the service's executor slot).
void set_engine_layers(MetricTable& table, const EngineSamples& samples,
                       const std::vector<double>& extra_pool_waits) {
  std::vector<double> pool_waits = extra_pool_waits;
  std::vector<double> read_bytes;
  std::vector<double> read_share;
  std::vector<double> unattributed;
  std::vector<double> overheads;
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    const std::string e = key(kEngines[k]);
    const auto& runs = samples.layers[k];
    const auto& counters = samples.counters[k];
    table.set("engines.tasks_per_run." + e,
              mean_over(counters, [](const auto& r) { return r.tasks; }));
    table.set("engines.shuffle_bytes_per_run." + e,
              mean_over(counters,
                        [](const auto& r) { return r.shuffle_bytes; }));
    table.set("engines.task_busy_s." + e,
              mean_over(runs, [](const Layers& l) { return l.busy_s; }));
    table.set("engines.overhead_s." + e,
              mean_over(runs, [](const Layers& l) {
                return l.wall_s - l.critical_busy_s;
              }));
    for (const Layers& l : runs) {
      pool_waits.insert(pool_waits.end(), l.pool_queue_waits.begin(),
                        l.pool_queue_waits.end());
      read_bytes.push_back(l.io_bytes);
      read_share.push_back(
          ratio(l.io_s, static_cast<double>(kWorkers) * l.wall_s));
      unattributed.push_back(1.0 - ratio(l.covered_s, l.wall_s));
    }
    const auto& traced = samples.traced_walls[k];
    const auto& untraced = samples.untraced_walls[k];
    if (!traced.empty() && !untraced.empty()) {
      overheads.push_back(
          ratio(percentile(traced, 50), percentile(untraced, 50)) - 1.0);
    }
  }
  const auto& dask = samples.layers[2];
  const auto& rp = samples.layers[3];
  table.set("engines.queue_wait_s_per_run.dask",
            mean_over(dask, [](const Layers& l) { return l.dask_queue_s; }));
  table.set("engines.staging_s_per_run.rp",
            mean_over(rp, [](const Layers& l) { return l.staging_s; }));
  table.set("engines.db_roundtrips_per_run.rp",
            mean_over(samples.counters[3],
                      [](const auto& r) { return r.db_roundtrips; }));
  table.set("engines.broadcast_bytes_per_run.spark",
            mean_over(samples.counters[1],
                      [](const auto& r) { return r.broadcast_bytes; }));
  table.set("engines.collective_s_per_run.mpi",
            mean_over(samples.layers[0],
                      [](const Layers& l) { return l.collective_s; }));
  table.set("common.pool_queue_wait_s_per_run.spark",
            mean_over(samples.layers[1],
                      [](const Layers& l) { return l.spark_pool_queue_s; }));
  table.set("common.pool_queue_wait_p95_s", percentile(pool_waits, 95));
  table.set("stream.read_bytes_per_run", mean_of(read_bytes));
  table.set("stream.read_busy_share", mean_of(read_share));
  table.set("trace.unattributed_frac", mean_of(unattributed));
  table.set("trace.overhead_frac", mean_of(overheads));
}

void set_parallel_efficiency(MetricTable& table, double serial_s,
                             const EngineSamples& samples) {
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    table.set(std::string("analysis.parallel_efficiency.") + key(kEngines[k]),
              ratio(serial_s, static_cast<double>(kWorkers) *
                                  percentile(samples.untraced_walls[k], 50)));
  }
}

/// Median wall seconds of `reps` calls of `fn` (serial replays).
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(since(t0));
  }
  return percentile(times, 50);
}

/// Sum of stored and raw payload bytes of one store, from its index.
struct StoreSize {
  double stored = 0.0;
  double raw = 0.0;
};

StoreSize store_size(const std::string& path) {
  StoreSize size;
  auto reader = stream::ShardReader::open(path);
  if (!reader.ok()) return size;
  for (const auto& entry : reader.value().info().index) {
    size.stored += static_cast<double>(entry.stored_bytes);
    size.raw += static_cast<double>(entry.raw_bytes);
  }
  return size;
}

/// Raw MB/s of ShardReader::read_all on `path` (median of 5 reads).
double decode_mbps(const std::string& path) {
  const StoreSize size = store_size(path);
  const double t = median_seconds(5, [&] {
    auto reader = stream::ShardReader::open(path);
    if (reader.ok()) (void)reader.value().read_all();
  });
  return ratio(size.raw, t) * 1e-6;
}

void export_trace(TraceContext& tc, const Options& opt,
                  const std::string& workload, Outcome& out) {
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path = opt.trace_dir + "/" + workload + ".trace.json";
  const Status status = trace::write_chrome_trace(tc.tracer, path);
  if (!status.ok()) out.fail("trace export: " + status.error().to_string());
}

// ----------------------------------------------------------- host speed --

/// A measured cost: process CPU seconds, and when the work started.
struct Cost {
  Clock::time_point at;
  double cpu_s = 0.0;
};

/// How fast the shared host runs, read off a fixed piece of bench-owned
/// work timed in thread CPU time before every run (every round on the
/// service).
///
/// Other tenants change what the same instructions cost (clock speed,
/// shared caches, the sibling hyperthread, the hypervisor's page-fault
/// path): the CPU time of the same run moved by up to a third within a
/// quarter of an hour. Every end-to-end cost goes through scaled(), which
/// divides it by the probes taken nearest to it in time, so it reads as
/// CPU seconds of a host that runs the probe in kReferenceS.
///
/// The probe mixes, in about equal parts, the three kinds of work the
/// workloads do: a latency-bound chain of minimums, a vectorised
/// (throughput-bound) distance loop, and first touches of freshly mapped
/// pages. Over fourteen invocations per workload, the chain alone moved
/// about two thirds as much as the workloads' costs and the vector loop
/// alone half as much again; the mix tracks them most closely (see the
/// README). It runs on as many threads at once as the engines have
/// workers, because a slow-down often hits only some of the vCPUs. It
/// calls no library code: a change to the library cannot move it.
class HostSpeed {
 public:
  /// The probe's median CPU time on the reference host (4-vCPU Xeon VM,
  /// GCC 12, Release).
  static constexpr double kReferenceS = 0.0078;

  HostSpeed() {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (float& x : points_) {
      state = hash_mix(state + 0x9e3779b97f4a7c15ULL);
      x = static_cast<float>(state >> 40) * 0x1.0p-24f;
    }
  }

  /// Runs the probe once on each of kWorkers threads at the same time and
  /// keeps their mean CPU time. Call it while no run is in flight.
  void sample() {
    const Clock::time_point at = Clock::now();
    std::array<double, kWorkers> cpu{};
    std::array<float, kWorkers> carry{};
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < kWorkers; ++t) {
        threads.emplace_back([this, t, &cpu, &carry] {
          const double t0 = thread_cpu_seconds();
          float c = 0.0f;
          for (int rep = 0; rep < kChainReps; ++rep) {
            for (std::size_t i = 0; i < kPoints; ++i) c = nearest(i, c);
          }
          c += vector_pass();
          c += touch_fresh_pages();
          cpu[t] = thread_cpu_seconds() - t0;
          carry[t] = c;
        });
      }
    }  // joins the probe threads
    samples_.push_back(
        {at, mdtask::mean(std::span<const double>(cpu.data(), cpu.size()))});
    sink_ = *std::max_element(carry.begin(), carry.end());
  }

  /// `cost` in reference-host CPU seconds: scaled by the median of the
  /// kWindow probes nearest to it in time (unscaled before any probe).
  double scaled(const Cost& cost) const {
    if (samples_.empty()) return cost.cpu_s;
    std::vector<Cost> near = samples_;
    const auto distance = [&](const Cost& s) {
      return std::abs(std::chrono::duration<double>(s.at - cost.at).count());
    };
    const auto n = static_cast<std::ptrdiff_t>(std::min(kWindow, near.size()));
    std::partial_sort(near.begin(), near.begin() + n, near.end(),
                      [&](const Cost& a, const Cost& b) {
                        return distance(a) < distance(b);
                      });
    std::vector<double> probes;
    for (auto it = near.begin(); it != near.begin() + n; ++it) {
      probes.push_back(it->cpu_s);
    }
    return cost.cpu_s * ratio(kReferenceS, percentile(probes, 50));
  }

  std::vector<double> scaled(const std::vector<Cost>& costs) const {
    std::vector<double> out;
    for (const Cost& c : costs) out.push_back(scaled(c));
    return out;
  }

  /// Median probe seconds over the invocation.
  double probe_s() const {
    std::vector<double> probes;
    for (const Cost& s : samples_) probes.push_back(s.cpu_s);
    return percentile(probes, 50);
  }

 private:
  static constexpr std::size_t kPoints = 512;
  static constexpr int kChainReps = 4;
  static constexpr int kVectorReps = 26;
  static constexpr std::size_t kFaultBytes = std::size_t{3} << 20;
  static constexpr std::size_t kFaultChunk = std::size_t{256} << 10;
  static constexpr std::size_t kWindow = 3;

  /// Squared distance from point `i` of the first set, nudged by the
  /// previous answer, to its nearest in the second. The nudge chains the
  /// calls, so this part is one latency-bound chain of minimums that a
  /// compiler cannot spread over SIMD lanes.
  float nearest(std::size_t i, float previous) const {
    const float* a = points_.data();
    const float* b = a + 3 * kPoints;
    const float x = a[i] + 1e-6f * previous;
    float best = std::numeric_limits<float>::max();
    for (std::size_t j = 0; j < kPoints; ++j) {
      const float dx = x - b[j];
      const float dy = a[kPoints + i] - b[kPoints + j];
      const float dz = a[2 * kPoints + i] - b[2 * kPoints + j];
      best = std::min(best, dx * dx + dy * dy + dz * dz);
    }
    return best;
  }

  /// For every point of the second set, its squared distance to the
  /// nearest of the first, kept element-wise: no loop-carried chain, so
  /// the compiler spreads it over SIMD lanes and it runs throughput-bound.
  float vector_pass() const {
    const float* a = points_.data();
    const float* b = a + 3 * kPoints;
    std::array<float, kPoints> best;
    best.fill(std::numeric_limits<float>::max());
    for (int rep = 0; rep < kVectorReps; ++rep) {
      for (std::size_t i = 0; i < kPoints; ++i) {
        const float x = a[i] + 1e-6f * static_cast<float>(rep);
        const float y = a[kPoints + i];
        const float z = a[2 * kPoints + i];
        for (std::size_t j = 0; j < kPoints; ++j) {
          const float dx = x - b[j];
          const float dy = y - b[kPoints + j];
          const float dz = z - b[2 * kPoints + j];
          const float d = dx * dx + dy * dy + dz * dz;
          best[j] = d < best[j] ? d : best[j];
        }
      }
    }
    return best[kPoints / 2];
  }

  /// Maps fresh anonymous memory kFaultChunk at a time, writes one byte
  /// per page (one page fault each) and unmaps it, kFaultBytes in all.
  /// The small chunks keep the probe's pages out of peak_rss_mb.
  static float touch_fresh_pages() {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    float touched = 0.0f;
    for (std::size_t done = 0; done < kFaultBytes; done += kFaultChunk) {
      void* mem = mmap(nullptr, kFaultChunk, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) return touched;
      auto* bytes = static_cast<volatile unsigned char*>(mem);
      for (std::size_t i = 0; i < kFaultChunk; i += page) bytes[i] = 1;
      touched += bytes[0];
      munmap(mem, kFaultChunk);
    }
    return touched;
  }

  std::array<float, 6 * kPoints> points_{};  ///< two sets, lane-major
  std::vector<Cost> samples_;  ///< every probe: when, and its CPU seconds
  volatile float sink_ = 0.0f;  ///< keeps the probe's results live
};

// ----------------------------------------------------- batch workloads --

/// One closed-loop run: bench-measured wall and process CPU time, the
/// engine's counters, and an empty error when the answer matched the
/// reference.
struct RunRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string error;
  workflows::RunMetrics metrics;
  double barrier_wait_s = 0.0;
};

/// A workload the closed loop runs one engine run at a time.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Generates the inputs from the seed, writes the store and builds the
  /// reference answer. Runs kSetupRepeats times; throws on I/O failure.
  virtual void setup(TraceContext* tc) = 0;
  /// One run on `engine`, its answer checked against the reference;
  /// `tracer` is attached through the workflow config when non-null.
  virtual RunRecord run(EngineKind engine, trace::Tracer* tracer) = 0;
  /// Trace mode: serial replays of one run's work (before timing).
  virtual void replay(TraceContext* tc) = 0;
  /// Trace mode: the workload's own per-layer metrics.
  virtual void set_layers(MetricTable& table,
                          const EngineSamples& samples) = 0;
  /// An untimed check after the timed section; non-empty = failure.
  virtual std::string final_check() { return {}; }
};

void set_store_layers(MetricTable& table, const std::string& path,
                      double raw_written, const std::vector<double>& write_s,
                      double decode, const EngineSamples& samples) {
  const StoreSize size = store_size(path);
  table.set("stream.write_MBps",
            ratio(raw_written, percentile(write_s, 50)) * 1e-6);
  table.set("stream.stored_over_raw", ratio(size.stored, size.raw));
  table.set("stream.read_amplification",
            ratio(mean_read_bytes(samples), size.stored));
  table.set("stream.decode_MBps", decode);
}

/// Median of each engine's samples.
std::array<double, kEngineCount> medians(
    const std::array<std::vector<double>, kEngineCount>& samples) {
  std::array<double, kEngineCount> out{};
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    out[k] = percentile(samples[k], 50);
  }
  return out;
}

/// Sets the end-to-end metrics of one untraced invocation from costs in
/// reference-host CPU seconds (HostSpeed::scaled): every set-up, the
/// median of one run (or job) per engine, the CPU seconds per operation a
/// client waited for, and the peak RSS.
void set_end_to_end(MetricTable& table, const std::vector<double>& setups,
                    const std::array<double, kEngineCount>& run_cpu,
                    double op_cpu) {
  table.set("setup_s", percentile(setups, 50));
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    table.set(std::string("run_cpu_s.") + key(kEngines[k]), run_cpu[k]);
  }
  table.set("op_cpu_s", op_cpu);
  table.set("peak_rss_mb", peak_rss_mb());
}

/// Sets the traced run's ungated wall-clock figures: one run (or job) per
/// engine, and the latency of every operation a client waited for.
void set_wall_layers(MetricTable& table,
                     const std::array<double, kEngineCount>& run_wall,
                     const std::vector<double>& ops) {
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    table.set(std::string("wall.run_p50_s.") + key(kEngines[k]), run_wall[k]);
  }
  table.set("wall.op_p50_s", percentile(ops, 50));
  table.set("wall.op_p95_s", percentile(ops, 95));
}

/// Set-up (repeated, with one untimed warm-up run per engine), then the
/// timed closed loop: engines interleaved run by run until `seconds`
/// have passed, whole cycles only, with a host probe before every set-up
/// and run. In trace mode even cycles run traced
/// and odd cycles untraced, so the tracing overhead is measured on the
/// same drifting host; the first traced cycle is exported.
void drive_batch(BatchWorkload& workload, const std::string& name,
                 const Options& opt, TraceContext* tc, HostSpeed& host,
                 Outcome& out, MetricTable& table) {
  std::vector<Cost> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    host.sample();
    const Stopwatch watch;
    {
      auto span = bench_span(tc, "setup");
      workload.setup(tc);
      for (EngineKind engine : kEngines) {
        const RunRecord warm = workload.run(engine, nullptr);
        if (!warm.error.empty()) {
          ++out.attempted;
          out.fail(std::string("warm-up on ") + key(engine) + ": " +
                   warm.error);
        }
      }
    }
    setups.push_back({watch.wall0, watch.cpu_s()});
  }
  if (tc != nullptr) workload.replay(tc);

  EngineSamples samples;
  std::array<std::vector<Cost>, kEngineCount> runs;
  std::vector<double> walls;
  const auto start = Clock::now();
  for (std::size_t cycle = 0; cycle < 2 || since(start) < opt.seconds;
       ++cycle) {
    const bool traced = tc != nullptr && cycle % 2 == 0;
    for (std::size_t k = 0; k < kEngineCount; ++k) {
      const EngineKind engine = kEngines[k];
      host.sample();
      const Clock::time_point at = Clock::now();
      const double start_us = traced ? tc->tracer.now_us() : 0.0;
      RunRecord record;
      {
        auto span = traced ? tc->span(std::string("run/") + key(engine))
                           : trace::Span();
        record = workload.run(engine, traced ? &tc->tracer : nullptr);
      }
      ++out.attempted;
      if (!record.error.empty()) {
        out.fail(std::string(key(engine)) + ": " + record.error);
      }
      if (!traced) {
        samples.untraced_walls[k].push_back(record.wall_s);
        walls.push_back(record.wall_s);
        runs[k].push_back({at, record.cpu_s});
        continue;
      }
      samples.layers[k].push_back(attribute(tc->tracer.events(),
                                            process_names(tc->tracer),
                                            start_us, tc->tracer.now_us()));
      samples.counters[k].push_back(record.metrics);
      samples.traced_walls[k].push_back(record.wall_s);
      samples.barrier_shares[k].push_back(
          ratio(record.barrier_wait_s, record.wall_s));
    }
    if (traced) {
      if (cycle == 0) export_trace(*tc, opt, name, out);
      tc->tracer.clear();
    }
  }
  if (const std::string error = workload.final_check(); !error.empty()) {
    out.fail(error);
  }

  if (tc != nullptr) {
    set_engine_layers(table, samples, {});
    set_wall_layers(table, medians(samples.untraced_walls), walls);
    workload.set_layers(table, samples);
    return;
  }
  std::array<std::vector<double>, kEngineCount> run_cpu;
  double cpu_sum = 0.0;
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    run_cpu[k] = host.scaled(runs[k]);
    for (const double c : run_cpu[k]) cpu_sum += c;
  }
  set_end_to_end(table, host.scaled(setups), medians(run_cpu),
                 ratio(cpu_sum, static_cast<double>(walls.size())));
}

/// Writes a trajectory store, timing the write.
double timed_write(const std::string& path, const traj::Trajectory& t,
                   std::size_t frames_per_shard, TraceContext* tc) {
  auto span = bench_span(tc, "stream.write_sharded");
  const auto t0 = Clock::now();
  const Status status =
      stream::write_sharded(path, t, {.frames_per_shard = frames_per_shard});
  if (!status.ok()) throw std::runtime_error(status.error().to_string());
  return since(t0);
}

/// Concatenates an ensemble frame-major: the PSA store layout.
traj::Trajectory concatenate(const traj::Ensemble& ensemble) {
  const std::size_t frames = ensemble.front().frames();
  traj::Trajectory all(ensemble.size() * frames, ensemble.front().atoms());
  auto dst = all.data().begin();
  for (const auto& t : ensemble) {
    dst = std::copy(t.data().begin(), t.data().end(), dst);
  }
  return all;
}

/// Bytes one frame-pair evaluation streams through the Hausdorff kernel
/// (two frames of three padded float lanes): a computed figure, which
/// ignores cache reuse.
double frame_pair_bytes(std::size_t lane_stride) {
  return 2.0 * 3.0 * static_cast<double>(lane_stride) * sizeof(float);
}

/// One timed serial pass of the Hausdorff kernel over every ordered pair
/// of distinct packs, the kernel work of one PSA matrix. Returns its
/// seconds and adds the frame-pair evaluations to `evals`.
double timed_hausdorff_pass(const std::vector<kernels::FramePack>& packs,
                            std::size_t& evals, double& sink) {
  const kernels::KernelPolicy policy = kernels::default_policy();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < packs.size(); ++i) {
    for (std::size_t j = 0; j < packs.size(); ++j) {
      if (i != j) {
        sink += kernels::hausdorff_packed(packs[i], packs[j], false, policy,
                                          &evals);
      }
    }
  }
  return since(t0);
}

// psa: 20 trajectories x 256 atoms x 32 frames in one compressed store,
// one trajectory per shard; each run computes the full Hausdorff matrix.
class PsaWorkload final : public BatchWorkload {
 public:
  explicit PsaWorkload(const Options& opt)
      : seed_(derive_seed(opt.seed, "e2e:psa")),
        path_(opt.work_dir + "/psa.mds") {
    if (opt.quick) {
      trajectories_ = 6;
      atoms_ = 32;
      frames_ = 8;
    }
  }

  void setup(TraceContext* tc) override {
    traj::ProteinTrajectoryParams params;
    params.atoms = atoms_;
    params.frames = frames_;
    params.seed = seed_;
    ensemble_ = traj::make_protein_ensemble(trajectories_, params);
    const traj::Trajectory all = concatenate(ensemble_);
    raw_written_ = static_cast<double>(all.byte_size());
    write_s_.push_back(timed_write(path_, all, frames_, tc));
    auto span = bench_span(tc, "analysis.psa_reference");
    reference_ = doubles_hash(analysis::psa_reference(ensemble_).data());
  }

  RunRecord run(EngineKind engine, trace::Tracer* tracer) override {
    workflows::PsaRunConfig config;
    config.workers = kWorkers;
    config.tracer = tracer;
    RunRecord record;
    const Stopwatch watch;
    auto result = workflows::run_psa_streamed(
        engine, {path_, stream::ShardReader::Mode::kStream, trajectories_},
        config);
    record.wall_s = watch.wall_s();
    record.cpu_s = watch.cpu_s();
    if (!result.ok()) {
      record.error = result.error().to_string();
      return record;
    }
    record.metrics = result.value().metrics;
    if (doubles_hash(result.value().matrix.data()) != reference_) {
      record.error = "PSA matrix differs from psa_reference";
    }
    return record;
  }

  void replay(TraceContext* tc) override {
    auto span = bench_span(tc, "replay.kernels");
    decode_mbps_ = decode_mbps(path_);
    std::vector<kernels::FramePack> packs;
    pack_s_ = median_seconds(3, [&] {
      packs.clear();
      for (const auto& t : ensemble_) {
        packs.push_back(kernels::pack_trajectory(t));
      }
    });
    stride_ = packs.front().stride();
    // The plain single-threaded run (psa_reference) and its kernel pass,
    // timed alternately so host drift hits both alike.
    std::size_t evals = 0;
    std::vector<double> serial_times;
    std::vector<double> kernel_times;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      sink_ += analysis::psa_reference(ensemble_).at(0, 1);
      serial_times.push_back(since(t0));
      evals = 0;
      kernel_times.push_back(timed_hausdorff_pass(packs, evals, sink_));
    }
    serial_s_ = percentile(serial_times, 50);
    hausdorff_s_ = percentile(kernel_times, 50);
    frame_pairs_ = static_cast<double>(evals);
  }

  void set_layers(MetricTable& table, const EngineSamples& samples) override {
    set_store_layers(table, path_, raw_written_, write_s_, decode_mbps_,
                     samples);
    const double serial = serial_s_;
    const double atoms = static_cast<double>(trajectories_ * frames_ * atoms_);
    table.set("kernels.hausdorff_pairs_per_us",
              ratio(frame_pairs_, hausdorff_s_) * 1e-6);
    table.set("kernels.pack_atoms_per_ns", ratio(atoms, pack_s_) * 1e-9);
    table.set("kernels.frame_pairs_per_run", frame_pairs_);
    table.set("kernels.computed_bytes_per_run",
              frame_pairs_ * frame_pair_bytes(stride_));
    table.set("kernels.busy_share", ratio(hausdorff_s_, serial));
    table.set("analysis.serial_s_per_run", serial);
    set_parallel_efficiency(table, serial, samples);
  }

 private:
  std::uint64_t seed_;
  std::string path_;
  std::size_t trajectories_ = 20;
  std::size_t atoms_ = 256;
  std::size_t frames_ = 32;
  traj::Ensemble ensemble_;
  std::uint64_t reference_ = 0;
  double raw_written_ = 0.0;
  std::vector<double> write_s_;
  double serial_s_ = 0.0;
  double decode_mbps_ = 0.0;
  double pack_s_ = 0.0;
  double hausdorff_s_ = 0.0;
  double frame_pairs_ = 0.0;
  std::size_t stride_ = 0;
  double sink_ = 0.0;  ///< keeps the replayed kernel results live
};

/// Leaflet Finder answer check against generator ground truth: two
/// equal leaflets, nothing unassigned, labels equal up to swap. The
/// canonical label of a component is its smallest atom id, so
/// `leaflet_a` is itself an atom of leaflet A.
std::string check_leaflets(const analysis::LeafletResult& found,
                           const std::vector<std::uint8_t>& truth) {
  const std::size_t half = truth.size() / 2;
  if (found.leaflet_a_size != half || found.leaflet_b_size != half ||
      found.unassigned != 0 || found.labels.size() != truth.size()) {
    return "leaflet sizes " + std::to_string(found.leaflet_a_size) + "/" +
           std::to_string(found.leaflet_b_size) + ", expected " +
           std::to_string(half) + "/" + std::to_string(half);
  }
  const std::uint8_t truth_a = truth[found.leaflet_a];
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if ((found.labels[i] == found.leaflet_a) != (truth[i] == truth_a)) {
      return "leaflet labels differ from the generator's ground truth";
    }
  }
  return {};
}

// leaflet: the paper's smallest membrane (131,072 atoms) as a points
// store; approach 4 (BallTree edges, partial components, tree reduce).
class LeafletWorkload final : public BatchWorkload {
 public:
  explicit LeafletWorkload(const Options& opt)
      : seed_(derive_seed(opt.seed, "e2e:leaflet")),
        path_(opt.work_dir + "/leaflet.mds") {
    if (opt.quick) {
      atoms_ = 4096;
      target_tasks_ = 16;
      points_per_shard_ = 512;
    }
  }

  void setup(TraceContext* tc) override {
    traj::BilayerParams params;
    params.atoms = atoms_;
    params.seed = seed_;
    bilayer_ = traj::make_bilayer(params);
    cutoff_ = traj::default_cutoff(params);
    raw_written_ = static_cast<double>(bilayer_.positions.size() *
                                       sizeof(traj::Vec3));
    auto span = bench_span(tc, "stream.write_sharded_points");
    const auto t0 = Clock::now();
    const Status status = stream::write_sharded_points(
        path_, bilayer_.positions, {.frames_per_shard = points_per_shard_});
    if (!status.ok()) throw std::runtime_error(status.error().to_string());
    write_s_.push_back(since(t0));
  }

  RunRecord run(EngineKind engine, trace::Tracer* tracer) override {
    workflows::LfRunConfig config;
    config.workers = kWorkers;
    config.target_tasks = target_tasks_;
    config.tracer = tracer;
    RunRecord record;
    const Stopwatch watch;
    auto result = workflows::run_leaflet_finder_streamed(
        engine, 4, {path_}, cutoff_, config);
    record.wall_s = watch.wall_s();
    record.cpu_s = watch.cpu_s();
    if (!result.ok()) {
      record.error = result.error().to_string();
      return record;
    }
    record.metrics = result.value().metrics;
    record.error = check_leaflets(result.value().leaflets, bilayer_.leaflet);
    return record;
  }

  void replay(TraceContext* tc) override {
    auto span = bench_span(tc, "replay.leaflet-approach-4");
    decode_mbps_ = decode_mbps(path_);
    const auto& positions = bilayer_.positions;
    pack_s_ = median_seconds(3, [&] {
      sink_ += static_cast<double>(kernels::pack_points(positions).stride());
    });
    const auto blocks = analysis::make_2d_blocks(positions.size(),
                                                 target_tasks_);
    // The first off-diagonal block: one map task's cutoff-kernel shape.
    const auto block = *std::find_if(
        blocks.begin(), blocks.end(),
        [](const analysis::BlockPair& b) { return !b.diagonal(); });
    const std::span<const traj::Vec3> all(positions);
    const auto rows =
        kernels::pack_points(all.subspan(block.rows.begin, block.rows.size()));
    const auto cols =
        kernels::pack_points(all.subspan(block.cols.begin, block.cols.size()));
    std::vector<kernels::IndexPair> hits;
    cutoff_s_ = median_seconds(3, [&] {
      hits.clear();
      kernels::cutoff_pairs_packed(rows, cols, cutoff_,
                                   kernels::default_policy(), hits);
    });
    cutoff_pairs_ = static_cast<double>(block.rows.size()) *
                    static_cast<double>(block.cols.size());
    // Serial replay of one run: edge discovery over every block, then
    // partial components and their merge.
    std::vector<double> edge_times;
    std::vector<double> cc_times;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      std::vector<std::vector<analysis::Edge>> edges;
      for (const auto& b : blocks) {
        edges.push_back(analysis::lf_edges_tree(positions, b, cutoff_));
      }
      edge_times.push_back(since(t0));
      t0 = Clock::now();
      std::vector<analysis::PartialComponents> parts;
      for (const auto& e : edges) parts.push_back(analysis::partial_components(e));
      const auto labels =
          analysis::merge_partial_components(positions.size(), parts);
      cc_times.push_back(since(t0));
      edges_ = 0.0;
      for (const auto& e : edges) edges_ += static_cast<double>(e.size());
      sink_ += static_cast<double>(labels.size());
    }
    edge_s_ = percentile(edge_times, 50);
    cc_s_ = percentile(cc_times, 50);
  }

  void set_layers(MetricTable& table, const EngineSamples& samples) override {
    set_store_layers(table, path_, raw_written_, write_s_, decode_mbps_,
                     samples);
    const double serial = edge_s_ + cc_s_;
    table.set("kernels.cutoff_pairs_per_ns",
              ratio(cutoff_pairs_, cutoff_s_) * 1e-9);
    table.set("kernels.pack_atoms_per_ns",
              ratio(static_cast<double>(atoms_), pack_s_) * 1e-9);
    // Edge discovery runs the cutoff kernel in the BallTree leaf scans.
    table.set("kernels.busy_share", ratio(edge_s_, serial));
    table.set("analysis.serial_s_per_run", serial);
    table.set("analysis.cc_share", ratio(cc_s_, serial));
    table.set("analysis.edges", edges_);
    set_parallel_efficiency(table, serial, samples);
  }

 private:
  std::uint64_t seed_;
  std::string path_;
  std::size_t atoms_ = 131072;
  std::size_t target_tasks_ = 64;
  std::size_t points_per_shard_ = 4096;
  traj::Bilayer bilayer_;
  double cutoff_ = 0.0;
  double raw_written_ = 0.0;
  std::vector<double> write_s_;
  double decode_mbps_ = 0.0;
  double pack_s_ = 0.0;
  double cutoff_s_ = 0.0;
  double cutoff_pairs_ = 0.0;
  double edge_s_ = 0.0;
  double cc_s_ = 0.0;
  double edges_ = 0.0;
  double sink_ = 0.0;
};

// repex: 16 replicas, 768 fixed rounds (no convergence exit), 48 atoms x
// 24 frames, nearest-neighbour exchanges. No store: the bypass workload.
class RepexWorkload final : public BatchWorkload {
 public:
  explicit RepexWorkload(const Options& opt) {
    repex::RepexParams& p = config_.params;
    p.replicas = opt.quick ? 4 : 16;
    p.max_rounds = opt.quick ? 16 : 768;
    p.acceptance_window = 0;
    p.atoms = opt.quick ? 16 : 48;
    p.frames = opt.quick ? 8 : 24;
    p.seed = derive_seed(opt.seed, "e2e:repex");
    config_.workers = kWorkers;
  }

  /// The reference is the plain single-threaded decision stream (cached
  /// base observables, one round delta per replica per round, the model's
  /// exchange rule); Runner::simulate is checked against it once, after
  /// the timed section, because its replay takes seconds.
  void setup(TraceContext* tc) override {
    auto span = bench_span(tc, "repex.serial-replay");
    const auto t0 = Clock::now();
    reference_ = serial_replay();
    serial_s_.push_back(since(t0));
  }

  std::string final_check() override {
    if (!matches_reference(repex::Runner(config_).simulate(EngineKind::kMpi))) {
      return "Runner::simulate differs from the serial decision stream";
    }
    return {};
  }

  RunRecord run(EngineKind engine, trace::Tracer* tracer) override {
    repex::RepexConfig config = config_;
    config.tracer = tracer;
    if (tracer != nullptr) config.params.base_evaluations = &base_evals_;
    const std::uint64_t evals_before = base_evals_.load();
    RunRecord record;
    const Stopwatch watch;
    const repex::RepexResult result = repex::Runner(config).run(engine);
    record.wall_s = watch.wall_s();
    record.cpu_s = watch.cpu_s();
    if (tracer != nullptr) {
      base_evals_per_run_.push_back(
          static_cast<double>(base_evals_.load() - evals_before));
    }
    record.metrics = result.metrics;
    record.barrier_wait_s = result.barrier_wait_s;
    if (!matches_reference(result)) {
      record.error = "decision stream differs from the serial replay";
    }
    return record;
  }

  void replay(TraceContext* tc) override {
    auto span = bench_span(tc, "replay.kernels");
    const repex::RepexParams& p = config_.params;
    traj::ProteinTrajectoryParams shape;
    shape.atoms = p.atoms;
    shape.frames = p.frames;
    shape.seed = p.seed;
    const auto a = traj::make_protein_trajectory(shape);
    shape.seed = p.seed + 1;
    const auto b = traj::make_protein_trajectory(shape);
    constexpr int kReps = 200;
    pack_s_ = median_seconds(3, [&] {
      for (int i = 0; i < kReps; ++i) {
        sink_ += static_cast<double>(kernels::pack_trajectory(a).stride());
      }
    }) / kReps;
    const auto pa = kernels::pack_trajectory(a);
    const auto pb = kernels::pack_trajectory(b);
    stride_ = pa.stride();
    std::size_t evals = 0;
    hausdorff_s_ = median_seconds(3, [&] {
      evals = 0;
      for (int i = 0; i < kReps; ++i) {
        sink_ += kernels::hausdorff_packed(pa, pb, false, p.kernel_policy,
                                           &evals);
      }
    });
    hausdorff_pairs_ = static_cast<double>(evals);
  }

  void set_layers(MetricTable& table, const EngineSamples& samples) override {
    const repex::RepexParams& p = config_.params;
    // Naive Hausdorff evaluates every frame pair in both directions.
    const double base_pairs = 2.0 * static_cast<double>(p.frames * p.frames);
    const double window = static_cast<double>(std::max<std::size_t>(
        2, p.window_frames));
    const double round_pairs = static_cast<double>(p.max_rounds) *
                               static_cast<double>(p.replicas) * 2.0 *
                               window * window;
    const double run_pairs =
        mean_of(base_evals_per_run_) * base_pairs + round_pairs;
    const double serial_pairs =
        static_cast<double>(p.replicas) * base_pairs + round_pairs;
    const double ns_per_pair = ratio(hausdorff_s_, hausdorff_pairs_) * 1e9;
    table.set("kernels.hausdorff_pairs_per_us",
              ratio(hausdorff_pairs_, hausdorff_s_) * 1e-6);
    table.set("kernels.pack_atoms_per_ns",
              ratio(static_cast<double>(p.atoms * p.frames), pack_s_) * 1e-9);
    table.set("kernels.frame_pairs_per_run", run_pairs);
    table.set("kernels.computed_bytes_per_run",
              run_pairs * frame_pair_bytes(stride_));
    const double serial = percentile(serial_s_, 50);
    table.set("kernels.busy_share",
              ratio(serial_pairs * ns_per_pair * 1e-9, serial));
    table.set("analysis.serial_s_per_run", serial);
    set_parallel_efficiency(table, serial, samples);
    for (std::size_t k = 0; k < kEngineCount; ++k) {
      table.set(std::string("repex.barrier_share.") + key(kEngines[k]),
                mean_of(samples.barrier_shares[k]));
    }
    table.set("repex.rounds", static_cast<double>(reference_.rounds));
    table.set("repex.accepted", static_cast<double>(reference_.accepted));
  }

 private:
  /// True when a live run (RepexResult) or a DES replay (SimRepexOutcome)
  /// made exactly the reference's decision stream.
  template <typename Run>
  bool matches_reference(const Run& o) const {
    return o.rounds == reference_.rounds &&
           o.attempted == reference_.attempted &&
           o.accepted == reference_.accepted &&
           o.acceptance_trajectory == reference_.acceptance_trajectory &&
           o.final_configs == reference_.final_configs &&
           o.final_energies == reference_.final_energies;
  }

  repex::SimRepexOutcome serial_replay() const {
    const repex::RepexParams& p = config_.params;
    repex::SimRepexOutcome out;
    out.final_configs.resize(p.replicas);
    std::vector<double> base(p.replicas);
    for (std::size_t c = 0; c < p.replicas; ++c) {
      out.final_configs[c] = c;
      base[c] = repex::base_observable(p, c);
    }
    std::vector<double> energies(p.replicas);
    for (std::size_t round = 0; round < p.max_rounds; ++round) {
      for (std::size_t slot = 0; slot < p.replicas; ++slot) {
        const std::size_t config = out.final_configs[slot];
        energies[slot] = base[config] + repex::round_delta(p, config, round);
      }
      const auto decisions =
          repex::decide_exchanges(p, round, out.final_configs, energies);
      std::uint64_t accepted = 0;
      for (const auto& d : decisions) accepted += d.accepted ? 1 : 0;
      out.attempted += decisions.size();
      out.accepted += accepted;
      out.acceptance_trajectory.push_back(
          decisions.empty() ? 0.0
                            : static_cast<double>(accepted) /
                                  static_cast<double>(decisions.size()));
      repex::apply_exchanges(out.final_configs, decisions);
    }
    out.rounds = out.acceptance_trajectory.size();
    out.final_energies = energies;
    return out;
  }

  repex::RepexConfig config_;
  repex::SimRepexOutcome reference_;
  std::atomic<std::uint64_t> base_evals_{0};
  std::vector<double> base_evals_per_run_;
  std::vector<double> serial_s_;
  double pack_s_ = 0.0;
  double hausdorff_s_ = 0.0;
  double hausdorff_pairs_ = 0.0;
  std::size_t stride_ = 0;
  double sink_ = 0.0;
};

// ------------------------------------------------------------- service --

/// Sizes of the service workload. Each store holds one ensemble (PSA),
/// one long trajectory (RMSD series) and one membrane snapshot (Leaflet
/// Finder), sized so the three families cost about the same per job.
struct ServiceShape {
  std::size_t stores = 8;
  std::size_t psa_trajectories = 6;
  std::size_t psa_atoms = 128;
  std::size_t psa_frames = 32;
  std::size_t series_frames = 768;
  std::size_t series_atoms = 256;
  std::size_t series_window = 64;  ///< frames per rmsd-series answer
  std::size_t membrane_atoms = 4096;
  std::size_t lf_tasks = 16;
  /// The request mix. With more repeats than a quarter, more than half of
  /// the requests are cache hits and the median latency is the hit's.
  std::size_t param_variants = 256;
  double repeat_fraction = 0.25;
  std::size_t hot_keys = 16;
  /// Closed-loop clients, each sending its next request when its last one
  /// is answered: two, so requests can meet in the batcher and join in
  /// the cache, and no more, so the engine workers keep their cores.
  std::size_t clients = 2;
  /// Requests per round; rounds pace the re-ingests by request count, so
  /// every invocation serves the same work per request however fast the
  /// host runs.
  std::size_t round_requests = 48;
  /// Every this many rounds, one seeded store is rewritten under a new
  /// generator seed and re-ingested while the round is served.
  std::size_t ingest_every = 4;
  /// Length of the request sequence the clients replay in order; a timed
  /// section uses a few thousand.
  std::size_t plan_requests = std::size_t{1} << 14;

  static ServiceShape make(bool quick) {
    ServiceShape shape;
    if (quick) {
      shape.stores = 3;
      shape.psa_trajectories = 4;
      shape.psa_atoms = 16;
      shape.psa_frames = 8;
      shape.series_frames = 128;
      shape.series_atoms = 16;
      shape.series_window = 8;
      shape.membrane_atoms = 512;
      shape.lf_tasks = 4;
      shape.round_requests = 16;
      shape.ingest_every = 1;
      shape.plan_requests = 1024;
    }
    return shape;
  }
};

/// One written generation of one store: its three files and the content
/// fingerprint the service keys cached answers on.
struct StoreGeneration {
  std::size_t slot = 0;
  std::uint64_t generation = 0;
  std::string ensemble;
  std::string series;
  std::string membrane;
  std::uint64_t fingerprint = 0;
};

/// The answer of one engine job before it is sliced per request: the
/// PSA matrix, the whole RMSD series, or the leaflet summary.
struct JobAnswer {
  std::vector<double> whole;
  workflows::RunMetrics metrics;
};

/// An offline serial recomputation of one (family, store generation),
/// with the timings the per-layer metrics need.
struct Reference {
  std::vector<double> whole;
  double serial_s = 0.0;
  double kernel_s = 0.0;      ///< kernel share of serial_s
  double kernel_pairs = 0.0;  ///< Hausdorff frame pairs (PSA)
  double cc_s = 0.0;          ///< connected components (leaflet)
  double edges = 0.0;         ///< contact edges (leaflet)
  double cutoff_s = 0.0;      ///< cutoff kernel over all point pairs
  double cutoff_pairs = 0.0;
  std::size_t lane_stride = 0;
};

/// Leaflet answer as a payload: sizes, counts and a hash of the
/// canonical labels (split into exact 32-bit halves).
std::vector<double> leaflet_payload(const analysis::LeafletResult& r) {
  const std::uint64_t h =
      bytes_hash(r.labels.data(), r.labels.size() * sizeof(std::uint32_t));
  return {static_cast<double>(r.leaflet_a_size),
          static_cast<double>(r.leaflet_b_size),
          static_cast<double>(r.component_count),
          static_cast<double>(r.unassigned),
          static_cast<double>(h >> 32),
          static_cast<double>(h & 0xffffffffULL)};
}

std::size_t param_value(const service::AnalysisRequest& request,
                        const char* name) {
  for (const auto& [k, v] : request.params) {
    if (k == name) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return 0;
}

/// The slice of the whole RMSD series one request asks for: window
/// `window` (mod the window count), every `stride`-th frame.
std::vector<double> series_slice(const std::vector<double>& series,
                                 std::size_t window_frames,
                                 std::size_t window, std::size_t stride) {
  const std::size_t windows = std::max<std::size_t>(
      1, series.size() / window_frames);
  const std::size_t begin = (window % windows) * window_frames;
  const std::size_t end = std::min(series.size(), begin + window_frames);
  std::vector<double> out;
  for (std::size_t f = begin; f < end; f += std::max<std::size_t>(1, stride)) {
    out.push_back(series[f]);
  }
  return out;
}

traj::Trajectory read_store(const std::string& path) {
  auto reader = stream::ShardReader::open(path);
  if (!reader.ok()) throw std::runtime_error(reader.error().to_string());
  auto all = reader.value().read_all();
  if (!all.ok()) throw std::runtime_error(all.error().to_string());
  return std::move(all).value();
}

/// One request of the closed loop: the parts of its key the offline check
/// needs, the store generation it was bound to, and its answer.
struct RequestRecord {
  service::AnalysisFamily family = service::AnalysisFamily::kRmsdSeries;
  service::TenantClass tenant_class = service::TenantClass::kBatch;
  std::size_t slot = 0;
  std::uint64_t generation = 0;
  std::size_t window = 0;
  std::size_t stride = 1;
  double sent_s = 0.0;     ///< since the timed section started
  double latency_s = 0.0;  ///< from submit to answer
  std::optional<service::CachedResult> result;
};

/// One engine job the bench's executor ran.
struct JobRecord {
  std::size_t engine = 0;  ///< index into kEngines
  service::AnalysisFamily family = service::AnalysisFamily::kRmsdSeries;
  std::size_t slot = 0;
  std::uint64_t generation = 0;
  std::size_t requests = 0;
  bool traced = false;
  double exec_s = 0.0;
  Cost cost;  ///< process CPU seconds while it ran
  double start_us = 0.0;
  double end_us = 0.0;
  workflows::RunMetrics metrics;
};

// service: a live AnalysisService with one executor slot, answering
// rmsd-series, PSA and leaflet (approach 3, cutoff kernel) requests from
// real stores, each job on the next of the four engines in turn. Two
// closed-loop clients replay generate_traffic's request sequence in
// rounds; every few rounds one store is rewritten under a new generator
// seed and re-ingested while the round is served, which invalidates its
// cached answers.
class ServiceWorkload {
 public:
  ServiceWorkload(const Options& opt, TraceContext* tc, HostSpeed& host)
      : opt_(opt),
        tc_(tc),
        host_(host),
        shape_(ServiceShape::make(opt.quick)),
        dir_(opt.work_dir + "/service") {
    traj::BilayerParams membrane;
    membrane.atoms = shape_.membrane_atoms;
    cutoff_ = traj::default_cutoff(membrane);
    std::filesystem::create_directories(dir_);
    if (tc_ != nullptr) {
      executor_track_ =
          tc_->tracer.thread(tc_->tracer.process("bench"), "executor");
    }
  }

  void run(Outcome& out, MetricTable& table);

 private:
  using RefKey = std::tuple<int, std::size_t, std::uint64_t>;

  static std::string store_name(std::size_t slot) {
    return "store-" + std::to_string(slot);
  }

  StoreGeneration write_generation(std::size_t slot,
                                   std::uint64_t generation);
  Result<JobAnswer> compute(EngineKind engine,
                            service::AnalysisFamily family,
                            const StoreGeneration& store,
                            trace::Tracer* tracer);
  const Reference& reference(service::AnalysisFamily family,
                             const StoreGeneration& store);
  /// Runs one job on kEngines[engine], timed, and records it.
  Result<JobAnswer> run_job(std::size_t engine,
                            service::AnalysisFamily family,
                            const StoreGeneration& store, bool traced,
                            std::size_t requests);
  Result<std::vector<service::ResultPayload>> execute(
      const service::EngineJob& job);
  /// One client request: binds `event` to the latest generation of store
  /// `slot`, submits it and waits for the answer.
  void request(service::AnalysisService& svc,
               const service::TrafficEvent& event, std::size_t slot,
               RequestRecord& rec);
  /// Rewrites one seeded store to new files under its next generation (jobs
  /// in flight keep reading the old one) and re-ingests it, which evicts
  /// the old generation's cached answers.
  void reingest(service::AnalysisService& svc, std::size_t tick,
                std::vector<std::uint64_t>& generations);
  void serve(const std::vector<service::TrafficEvent>& plan,
             const std::vector<std::size_t>& plan_slots,
             service::AnalysisService::Stats* stats, Outcome& out);
  void set_layers(MetricTable& table,
                  const service::AnalysisService::Stats& stats);
  /// Per engine, the sum over the families of `statistic` over the
  /// `value`s of the engine's untraced jobs of that family: one job of
  /// each family. The families cost different amounts, so one statistic
  /// over the mix would jump between them with the mix.
  template <typename F, typename S>
  std::array<double, kEngineCount> per_engine(F value, S statistic) const;
  void export_requests();

  const Options& opt_;
  TraceContext* tc_;
  HostSpeed& host_;
  ServiceShape shape_;
  std::string dir_;
  double cutoff_ = 0.0;
  trace::Track executor_track_{};
  Clock::time_point start_;  ///< start of the timed section
  double epoch_us_ = 0.0;    ///< the same instant on the tracer's clock
  double serve_s_ = 0.0;     ///< wall time of the timed section
  std::vector<Cost> rounds_;  ///< CPU cost of every timed round
  std::atomic<std::size_t> jobs_started_{0};

  std::vector<StoreGeneration> initial_;  ///< generation 0 of every slot
  std::map<std::pair<std::size_t, std::uint64_t>, StoreGeneration> all_;
  std::map<RefKey, Reference> references_;
  double write_s_ = 0.0;
  double raw_written_ = 0.0;

  std::mutex mu_;  ///< guards latest_, by_fingerprint_, all_ and jobs_
  std::vector<StoreGeneration> latest_;
  std::unordered_map<std::uint64_t, StoreGeneration> by_fingerprint_;
  std::vector<JobRecord> jobs_;

  std::vector<RequestRecord> records_;
  double sink_ = 0.0;  ///< keeps the replayed kernel results live
};

StoreGeneration ServiceWorkload::write_generation(std::size_t slot,
                                                  std::uint64_t generation) {
  StoreGeneration g;
  g.slot = slot;
  g.generation = generation;
  const std::string stem =
      dir_ + "/s" + std::to_string(slot) + "g" + std::to_string(generation);
  g.ensemble = stem + ".psa.mds";
  g.series = stem + ".rmsd.mds";
  g.membrane = stem + ".lf.mds";
  const std::uint64_t seed =
      hash_combine(derive_seed(opt_.seed, "e2e:service-store", slot),
                   generation);
  traj::ProteinTrajectoryParams psa;
  psa.atoms = shape_.psa_atoms;
  psa.frames = shape_.psa_frames;
  psa.seed = seed;
  const traj::Trajectory ensemble = concatenate(
      traj::make_protein_ensemble(shape_.psa_trajectories, psa));
  traj::ProteinTrajectoryParams series;
  series.atoms = shape_.series_atoms;
  series.frames = shape_.series_frames;
  series.seed = hash_mix(seed);
  const traj::Trajectory long_run = traj::make_protein_trajectory(series);
  traj::BilayerParams bilayer;
  bilayer.atoms = shape_.membrane_atoms;
  bilayer.seed = hash_mix(hash_mix(seed));
  const traj::Bilayer membrane = traj::make_bilayer(bilayer);

  write_s_ += timed_write(g.ensemble, ensemble, shape_.psa_frames, tc_);
  write_s_ += timed_write(g.series, long_run, shape_.series_window, tc_);
  {
    auto span = bench_span(tc_, "stream.write_sharded_points");
    const auto t0 = Clock::now();
    const Status status = stream::write_sharded_points(
        g.membrane, membrane.positions, {.frames_per_shard = 1024});
    if (!status.ok()) throw std::runtime_error(status.error().to_string());
    write_s_ += since(t0);
  }
  raw_written_ += static_cast<double>(
      ensemble.byte_size() + long_run.byte_size() +
      membrane.positions.size() * sizeof(traj::Vec3));
  for (const std::string* path : {&g.ensemble, &g.series, &g.membrane}) {
    auto reader = stream::ShardReader::open(*path);
    if (!reader.ok()) throw std::runtime_error(reader.error().to_string());
    g.fingerprint = hash_combine(
        g.fingerprint, service::store_fingerprint(reader.value().info()));
  }
  return g;
}

Result<JobAnswer> ServiceWorkload::compute(EngineKind engine,
                                           service::AnalysisFamily family,
                                           const StoreGeneration& store,
                                           trace::Tracer* tracer) {
  JobAnswer answer;
  switch (family) {
    case service::AnalysisFamily::kPsa: {
      workflows::PsaRunConfig config;
      config.workers = kWorkers;
      config.tracer = tracer;
      auto result = workflows::run_psa_streamed(
          engine,
          {store.ensemble, stream::ShardReader::Mode::kStream,
           shape_.psa_trajectories},
          config);
      if (!result.ok()) return result.error();
      answer.whole = result.value().matrix.data();
      answer.metrics = result.value().metrics;
      return answer;
    }
    case service::AnalysisFamily::kRmsdSeries: {
      // The RMSD runner takes an in-memory trajectory: the executor reads
      // the store once per job and every request slices the series.
      auto reader = stream::ShardReader::open(store.series);
      if (!reader.ok()) return reader.error();
      if (tracer != nullptr) reader.value().set_tracer(tracer);
      auto trajectory = reader.value().read_all();
      if (!trajectory.ok()) return trajectory.error();
      workflows::RmsdRunConfig config;
      config.workers = kWorkers;
      config.options.superpose = true;
      auto result =
          workflows::run_rmsd_series(engine, trajectory.value(), config);
      answer.whole = std::move(result.series);
      answer.metrics = result.metrics;
      return answer;
    }
    case service::AnalysisFamily::kLeaflet: {
      workflows::LfRunConfig config;
      config.workers = kWorkers;
      config.target_tasks = shape_.lf_tasks;
      config.tracer = tracer;
      auto result = workflows::run_leaflet_finder_streamed(
          engine, 3, {store.membrane}, cutoff_, config);
      if (!result.ok()) return result.error();
      answer.whole = leaflet_payload(result.value().leaflets);
      answer.metrics = result.value().metrics;
      return answer;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown analysis family");
}

const Reference& ServiceWorkload::reference(service::AnalysisFamily family,
                                            const StoreGeneration& store) {
  const RefKey k{static_cast<int>(family), store.slot, store.generation};
  if (const auto it = references_.find(k); it != references_.end()) {
    return it->second;
  }
  Reference ref;
  const kernels::KernelPolicy policy = kernels::default_policy();
  switch (family) {
    case service::AnalysisFamily::kPsa: {
      const traj::Trajectory all = read_store(store.ensemble);
      const std::size_t frames = shape_.psa_frames;
      traj::Ensemble ensemble;
      for (std::size_t i = 0; i < shape_.psa_trajectories; ++i) {
        traj::Trajectory t(frames, all.atoms());
        const auto src = all.data().subspan(i * frames * all.atoms(),
                                            frames * all.atoms());
        std::copy(src.begin(), src.end(), t.data().begin());
        ensemble.push_back(std::move(t));
      }
      auto t0 = Clock::now();
      ref.whole = analysis::psa_reference(ensemble).data();
      ref.serial_s = since(t0);
      if (tc_ == nullptr) break;  // kernel timings feed only the traced run
      std::vector<kernels::FramePack> packs;
      for (const auto& t : ensemble) packs.push_back(kernels::pack_trajectory(t));
      std::size_t evals = 0;
      ref.kernel_s = timed_hausdorff_pass(packs, evals, sink_);
      ref.kernel_pairs = static_cast<double>(evals);
      ref.lane_stride = packs.front().stride();
      break;
    }
    case service::AnalysisFamily::kRmsdSeries: {
      const traj::Trajectory trajectory = read_store(store.series);
      const auto t0 = Clock::now();
      ref.whole = analysis::rmsd_series(trajectory, {0, true});
      ref.serial_s = since(t0);
      break;
    }
    case service::AnalysisFamily::kLeaflet: {
      const traj::Trajectory points = read_store(store.membrane);
      const auto positions = points.data();
      std::vector<std::uint32_t> ids(positions.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<std::uint32_t>(i);
      }
      auto t0 = Clock::now();
      const auto edges = analysis::edges_within_cutoff(
          positions, positions, ids, ids, cutoff_, policy);
      const double edge_s = since(t0);
      t0 = Clock::now();
      const auto found = analysis::summarize_leaflets(
          analysis::connected_components_union_find(positions.size(),
                                                    edges));
      ref.cc_s = since(t0);
      ref.whole = leaflet_payload(found);
      ref.serial_s = edge_s + ref.cc_s;
      ref.kernel_s = edge_s;
      ref.edges = static_cast<double>(edges.size());
      if (tc_ == nullptr) break;
      const auto pack = kernels::pack_points(positions);
      std::vector<kernels::IndexPair> hits;
      t0 = Clock::now();
      kernels::cutoff_pairs_packed(pack, pack, cutoff_, policy, hits);
      ref.cutoff_s = since(t0);
      ref.cutoff_pairs = static_cast<double>(positions.size()) *
                         static_cast<double>(positions.size());
      break;
    }
  }
  return references_.emplace(k, std::move(ref)).first->second;
}

Result<JobAnswer> ServiceWorkload::run_job(std::size_t engine,
                                           service::AnalysisFamily family,
                                           const StoreGeneration& store,
                                           bool traced, std::size_t requests) {
  JobRecord record;
  record.engine = engine;
  record.family = family;
  record.slot = store.slot;
  record.generation = store.generation;
  record.requests = requests;
  record.traced = traced;
  record.start_us = tc_ != nullptr ? tc_->tracer.now_us() : 0.0;
  const Stopwatch watch;
  Result<JobAnswer> answer = [&]() -> Result<JobAnswer> {
    auto span = tc_ != nullptr
                    ? tc_->tracer.span(executor_track_,
                                       std::string("execute/") +
                                           key(kEngines[engine]) + "/" +
                                           service::to_string(family),
                                       "bench")
                    : trace::Span();
    try {
      return compute(kEngines[engine], family, store,
                     traced ? &tc_->tracer : nullptr);
    } catch (const std::exception& e) {
      return Error(ErrorCode::kInternal, e.what());
    }
  }();
  record.exec_s = watch.wall_s();
  record.cost = {watch.wall0, watch.cpu_s()};
  record.end_us = tc_ != nullptr ? tc_->tracer.now_us() : 0.0;
  if (answer.ok()) {
    record.metrics = answer.value().metrics;
    std::lock_guard lk(mu_);
    jobs_.push_back(std::move(record));
  }
  return answer;
}

Result<std::vector<service::ResultPayload>> ServiceWorkload::execute(
    const service::EngineJob& job) {
  StoreGeneration store;
  {
    std::lock_guard lk(mu_);
    const auto it = by_fingerprint_.find(job.store_fingerprint);
    if (it == by_fingerprint_.end()) {
      return Error(ErrorCode::kInvalidArgument, "unknown store fingerprint");
    }
    store = it->second;
  }
  // Jobs go to the engines in turn. Trace mode traces every other turn of
  // four, so traced and untraced jobs of the same mix meet every engine.
  const std::size_t n = jobs_started_.fetch_add(1);
  const bool traced = tc_ != nullptr && (n / kEngineCount) % 2 == 0;
  Result<JobAnswer> answer = run_job(n % kEngineCount, job.family, store,
                                     traced, job.requests.size());
  if (!answer.ok()) return answer.error();
  std::vector<service::ResultPayload> payloads;
  payloads.reserve(job.requests.size());
  for (const service::AnalysisRequest& request : job.requests) {
    service::ResultPayload payload;
    payload.values =
        job.family == service::AnalysisFamily::kRmsdSeries
            ? series_slice(answer.value().whole, shape_.series_window,
                           param_value(request, "window"),
                           param_value(request, "stride"))
            : answer.value().whole;
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

void ServiceWorkload::run(Outcome& out, MetricTable& table) {
  // Set-up: write every store's first generation, then warm every engine
  // on every family (answers checked against the serial references).
  std::vector<Cost> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    host_.sample();
    const Stopwatch watch;
    {
      auto span = bench_span(tc_, "setup");
      references_.clear();
      initial_.clear();
      for (std::size_t slot = 0; slot < shape_.stores; ++slot) {
        initial_.push_back(write_generation(slot, 0));
      }
      for (EngineKind engine : kEngines) {
        for (std::size_t f = 0; f < service::kAnalysisFamilies; ++f) {
          const auto family = static_cast<service::AnalysisFamily>(f);
          const auto answer =
              compute(engine, family, initial_.front(), nullptr);
          if (!answer.ok() || answer.value().whole !=
                                  reference(family, initial_.front()).whole) {
            ++out.attempted;
            out.fail(std::string("warm-up on ") + key(engine) + "/" +
                     service::to_string(family));
          }
        }
      }
    }
    setups.push_back({watch.wall0, watch.cpu_s()});
  }
  for (const StoreGeneration& g : initial_) all_[{g.slot, 0}] = g;

  // The request sequence: generate_traffic's arrivals in order, without
  // their times (each client sends its next request when it is free).
  service::TrafficConfig traffic;
  traffic.seed = derive_seed(opt_.seed, "e2e:traffic");
  traffic.duration_s = 1.0;
  traffic.rate_per_s = static_cast<double>(shape_.plan_requests);
  traffic.stores = shape_.stores;
  traffic.param_variants = shape_.param_variants;
  traffic.repeat_fraction = shape_.repeat_fraction;
  traffic.hot_keys = shape_.hot_keys;
  const std::vector<service::TrafficEvent> plan =
      service::generate_traffic(traffic);
  if (plan.empty()) throw std::runtime_error("generate_traffic: no requests");
  std::vector<std::size_t> plan_slots;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  for (const auto& event : plan) {
    // Generated fingerprints are placeholders; bind them to real stores.
    const auto it = slot_of.try_emplace(event.request.store_fingerprint,
                                        slot_of.size() % shape_.stores);
    plan_slots.push_back(it.first->second);
  }
  service::AnalysisService::Stats stats;
  serve(plan, plan_slots, &stats, out);

  // Every served payload must equal the offline serial recomputation
  // for its (request key, store generation).
  std::vector<double> latencies;
  for (const RequestRecord& rec : records_) {
    ++out.attempted;
    latencies.push_back(rec.latency_s);
    if (!rec.result.has_value() || !rec.result->ok()) {
      out.fail("request: " + (rec.result.has_value()
                                  ? rec.result->error().to_string()
                                  : std::string("no answer")));
      continue;
    }
    const Reference& ref =
        reference(rec.family, all_.at({rec.slot, rec.generation}));
    const std::vector<double> expected =
        rec.family == service::AnalysisFamily::kRmsdSeries
            ? series_slice(ref.whole, shape_.series_window, rec.window,
                           rec.stride)
            : ref.whole;
    if (rec.result->value()->values != expected) {
      out.fail(std::string("served ") + service::to_string(rec.family) +
               " payload differs from the offline recomputation");
    }
  }

  if (tc_ != nullptr) {
    set_layers(table, stats);
    set_wall_layers(table,
                    per_engine([](const JobRecord& job) { return job.exec_s; },
                               [](const std::vector<double>& xs) {
                                 return percentile(xs, 50);
                               }),
                    latencies);
    export_requests();
    export_trace(*tc_, opt_, "service", out);
    return;
  }
  double serve_cpu = 0.0;
  for (const double c : host_.scaled(rounds_)) serve_cpu += c;
  // A mean, not a median: a small job's cost is bimodal (the same leaflet
  // job took 22 or 40 ms of CPU depending on what the host was doing in
  // that second), and a median jumps between the modes from one
  // invocation to the next where a mean moves with their mix.
  set_end_to_end(table, host_.scaled(setups),
                 per_engine([this](const JobRecord& job) {
                   return host_.scaled(job.cost);
                 }, mean_of),
                 ratio(serve_cpu, static_cast<double>(records_.size())));
}

template <typename F, typename S>
std::array<double, kEngineCount> ServiceWorkload::per_engine(
    F value, S statistic) const {
  std::array<double, kEngineCount> out{};
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    for (std::size_t f = 0; f < service::kAnalysisFamilies; ++f) {
      std::vector<double> xs;
      for (const JobRecord& job : jobs_) {
        if (!job.traced && job.engine == k &&
            job.family == static_cast<service::AnalysisFamily>(f)) {
          xs.push_back(value(job));
        }
      }
      out[k] += statistic(xs);
    }
  }
  return out;
}

void ServiceWorkload::request(service::AnalysisService& svc,
                              const service::TrafficEvent& event,
                              std::size_t slot, RequestRecord& rec) {
  rec.family = event.request.family;
  rec.tenant_class = event.request.tenant_class;
  rec.window = param_value(event.request, "window");
  rec.stride = param_value(event.request, "stride");
  service::AnalysisRequest request = event.request;
  {
    std::lock_guard lk(mu_);
    const StoreGeneration& g = latest_[slot];
    request.store_fingerprint = g.fingerprint;
    rec.slot = g.slot;
    rec.generation = g.generation;
  }
  const auto t0 = Clock::now();
  rec.sent_s = std::chrono::duration<double>(t0 - start_).count();
  try {
    rec.result = svc.submit(std::move(request)).get();
  } catch (const std::exception& e) {
    rec.result = service::CachedResult(Error(ErrorCode::kInternal, e.what()));
  }
  rec.latency_s = since(t0);
}

void ServiceWorkload::reingest(service::AnalysisService& svc,
                               std::size_t tick,
                               std::vector<std::uint64_t>& generations) {
  const std::size_t slot =
      derive_seed(opt_.seed, "e2e:ingest", tick) % shape_.stores;
  const StoreGeneration g = write_generation(slot, ++generations[slot]);
  {
    std::lock_guard lk(mu_);
    by_fingerprint_[g.fingerprint] = g;
    latest_[slot] = g;
    all_[{slot, g.generation}] = g;
  }
  svc.ingest_store(store_name(slot), g.fingerprint);
}

void ServiceWorkload::serve(const std::vector<service::TrafficEvent>& plan,
                            const std::vector<std::size_t>& plan_slots,
                            service::AnalysisService::Stats* stats,
                            Outcome& out) {
  records_.clear();
  latest_ = initial_;
  for (const StoreGeneration& g : initial_) by_fingerprint_[g.fingerprint] = g;

  ThreadPool slot_pool(1);  // one executor slot
  if (tc_ != nullptr) {
    slot_pool.enable_tracing(tc_->tracer, tc_->tracer.process("service"),
                             "slot");
  }
  service::ServiceConfig config;
  // Admission never sheds here, so every request is answered and checked.
  config.admission.max_global_requests = std::size_t{1} << 20;
  config.admission.max_global_bytes = std::uint64_t{1} << 60;
  config.admission.max_tenant_requests = std::size_t{1} << 20;
  service::AnalysisService svc(
      config, slot_pool,
      [this](const service::EngineJob& job) { return execute(job); });
  for (const StoreGeneration& g : initial_) {
    svc.ingest_store(store_name(g.slot), g.fingerprint);
  }

  std::vector<std::uint64_t> generations(shape_.stores, 0);
  std::string ingest_error;
  start_ = Clock::now();
  if (tc_ != nullptr) epoch_us_ = tc_->tracer.now_us();
  for (std::size_t round = 0; round < 2 || since(start_) < opt_.seconds;
       ++round) {
    host_.sample();
    const Stopwatch round_watch;
    const std::size_t first = records_.size();
    const std::size_t end = first + shape_.round_requests;
    records_.resize(end);
    std::atomic<std::size_t> next{first};
    {
      std::jthread ingester;
      if ((round + 1) % shape_.ingest_every == 0) {
        ingester = std::jthread([&, round] {
          try {
            reingest(svc, round, generations);
          } catch (const std::exception& e) {
            ingest_error = e.what();
          }
        });
      }
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < shape_.clients; ++c) {
        clients.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < end;
               i = next.fetch_add(1)) {
            request(svc, plan[i % plan.size()], plan_slots[i % plan.size()],
                    records_[i]);
          }
        });
      }
    }  // joins the clients, then the ingester
    rounds_.push_back({round_watch.wall0, round_watch.cpu_s()});
  }
  serve_s_ = since(start_);
  svc.drain();
  *stats = svc.stats();
  if (!ingest_error.empty()) out.fail("re-ingest: " + ingest_error);
}

void ServiceWorkload::set_layers(
    MetricTable& table, const service::AnalysisService::Stats& stats) {
  const auto& cache = stats.cache;
  const double lookups = static_cast<double>(cache.hits + cache.misses +
                                             cache.inflight_joins);
  table.set("service.lookups", lookups);
  table.set("service.cache_hit_ratio",
            ratio(static_cast<double>(cache.hits), lookups));
  table.set("service.join_ratio",
            ratio(static_cast<double>(cache.inflight_joins), lookups));
  table.set("service.requests_per_job",
            ratio(static_cast<double>(cache.misses),
                  static_cast<double>(stats.engine_jobs)));
  table.set("service.invalidations", static_cast<double>(cache.invalidations));
  table.set("service.shed", static_cast<double>(stats.rejected));

  double latency_sum = 0.0;
  for (const RequestRecord& rec : records_) latency_sum += rec.latency_s;
  double exec_weighted = 0.0;
  double exec_sum = 0.0;
  for (const JobRecord& job : jobs_) {
    exec_weighted += job.exec_s * static_cast<double>(job.requests);
    exec_sum += job.exec_s;
  }
  table.set("service.exec_share", ratio(exec_weighted, latency_sum));
  table.set("service.slot_busy_share", ratio(exec_sum, serve_s_));

  // Engines, from the jobs traced in turn; kernels and analysis, from the
  // references of what was served.
  const auto events = tc_->tracer.events();
  const auto procs = process_names(tc_->tracer);
  std::vector<double> slot_waits;
  for (const trace::TraceEvent& ev : events) {
    const auto it = procs.find(ev.track.pid);
    if (ev.category == "queue" && it != procs.end() &&
        it->second == "service") {
      slot_waits.push_back(ev.dur_us * 1e-6);
    }
  }
  EngineSamples samples;
  std::vector<double> amplification;
  std::array<double, kEngineCount> eff_serial{};
  std::array<double, kEngineCount> eff_exec{};
  double serial_sum = 0.0;
  double kernel_sum = 0.0;
  double psa_jobs = 0.0;
  double psa_job_pairs = 0.0;
  std::size_t stride = 0;
  for (const JobRecord& job : jobs_) {
    const StoreGeneration& store = all_.at({job.slot, job.generation});
    const Reference& ref = reference(job.family, store);
    serial_sum += ref.serial_s;
    kernel_sum += ref.kernel_s;
    if (job.family == service::AnalysisFamily::kPsa) {
      psa_jobs += 1.0;
      psa_job_pairs = ref.kernel_pairs;
      stride = ref.lane_stride;
    }
    if (!job.traced) {
      samples.untraced_walls[job.engine].push_back(job.exec_s);
      eff_serial[job.engine] += ref.serial_s;
      eff_exec[job.engine] += job.exec_s;
      continue;
    }
    const Layers layers = attribute(events, procs, job.start_us, job.end_us);
    const std::string& path =
        job.family == service::AnalysisFamily::kPsa      ? store.ensemble
        : job.family == service::AnalysisFamily::kLeaflet ? store.membrane
                                                          : store.series;
    amplification.push_back(ratio(layers.io_bytes, store_size(path).stored));
    samples.layers[job.engine].push_back(layers);
    samples.counters[job.engine].push_back(job.metrics);
    samples.traced_walls[job.engine].push_back(job.exec_s);
  }
  set_engine_layers(table, samples, slot_waits);

  StoreSize total;
  for (const StoreGeneration& g : initial_) {
    for (const std::string* path : {&g.ensemble, &g.series, &g.membrane}) {
      const StoreSize size = store_size(*path);
      total.stored += size.stored;
      total.raw += size.raw;
    }
  }
  table.set("stream.write_MBps", ratio(raw_written_, write_s_) * 1e-6);
  table.set("stream.stored_over_raw", ratio(total.stored, total.raw));
  table.set("stream.read_amplification", mean_of(amplification));
  table.set("stream.decode_MBps", decode_mbps(initial_.front().series));

  double hausdorff_pairs = 0.0;
  double hausdorff_s = 0.0;
  double cutoff_pairs = 0.0;
  double cutoff_s = 0.0;
  double cc_s = 0.0;
  double leaflet_serial = 0.0;
  std::vector<double> edges;
  for (const auto& [k, ref] : references_) {
    switch (static_cast<service::AnalysisFamily>(std::get<0>(k))) {
      case service::AnalysisFamily::kPsa:
        hausdorff_pairs += ref.kernel_pairs;
        hausdorff_s += ref.kernel_s;
        break;
      case service::AnalysisFamily::kLeaflet:
        cutoff_pairs += ref.cutoff_pairs;
        cutoff_s += ref.cutoff_s;
        cc_s += ref.cc_s;
        leaflet_serial += ref.serial_s;
        edges.push_back(ref.edges);
        break;
      case service::AnalysisFamily::kRmsdSeries:
        break;
    }
  }
  const traj::Trajectory series = read_store(initial_.front().series);
  const double pack_s = median_seconds(3, [&] {
    sink_ += static_cast<double>(kernels::pack_trajectory(series).stride());
  });
  const double jobs = static_cast<double>(jobs_.size());
  const double frame_pairs = ratio(psa_jobs * psa_job_pairs, jobs);
  table.set("kernels.hausdorff_pairs_per_us",
            ratio(hausdorff_pairs, hausdorff_s) * 1e-6);
  table.set("kernels.cutoff_pairs_per_ns", ratio(cutoff_pairs, cutoff_s) * 1e-9);
  table.set("kernels.pack_atoms_per_ns",
            ratio(static_cast<double>(series.frames() * series.atoms()),
                  pack_s) * 1e-9);
  table.set("kernels.frame_pairs_per_run", frame_pairs);
  table.set("kernels.computed_bytes_per_run",
            frame_pairs * frame_pair_bytes(stride));
  table.set("kernels.busy_share", ratio(kernel_sum, serial_sum));
  table.set("analysis.serial_s_per_run", ratio(serial_sum, jobs));
  for (std::size_t k = 0; k < kEngineCount; ++k) {
    table.set(std::string("analysis.parallel_efficiency.") + key(kEngines[k]),
              ratio(eff_serial[k],
                    static_cast<double>(kWorkers) * eff_exec[k]));
  }
  table.set("analysis.cc_share", ratio(cc_s, leaflet_serial));
  table.set("analysis.edges", mean_of(edges));
}

void ServiceWorkload::export_requests() {
  const std::uint32_t pid = tc_->tracer.process("bench");
  std::array<trace::Track, service::kTenantClasses> tracks;
  for (std::size_t c = 0; c < service::kTenantClasses; ++c) {
    tracks[c] = tc_->tracer.thread(
        pid, std::string("requests-") +
                 service::to_string(static_cast<service::TenantClass>(c)));
  }
  for (const RequestRecord& rec : records_) {
    tc_->tracer.complete(
        tracks[static_cast<std::size_t>(rec.tenant_class)],
        std::string("request/") + service::to_string(rec.family), "bench",
        epoch_us_ + rec.sent_s * 1e6, rec.latency_s * 1e6);
  }
}

// -------------------------------------------------------------- output --

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The CPU brand string from cpuid (no file reads outside the checkout).
std::string cpu_model() {
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

void print_provenance(const std::string& workload, const Options& opt) {
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
      "\"holdout_seed\": %llu, \"commit\": %s, \"nproc\": %u, \"cpu\": %s, "
      "\"l2_bytes\": %ld, \"l3_bytes\": %ld, \"engine_workers\": %zu, "
      "\"kernel_policy\": %s, \"traced\": %s, \"quick\": %s, "
      "\"seconds\": %s}}\n",
      json_string(workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(kHoldoutSeed),
      json_string(opt.commit).c_str(), std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(), sysconf(_SC_LEVEL2_CACHE_SIZE),
      sysconf(_SC_LEVEL3_CACHE_SIZE), kWorkers,
      json_string(kernels::to_string(kernels::default_policy())).c_str(),
      opt.traced() ? "true" : "false", opt.quick ? "true" : "false",
      json_number(opt.seconds).c_str());
}

/// The result line: the last line of stdout.
void print_result(const Outcome& out, const MetricTable& table) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& row : table.rows()) {
    if (!first) line += ", ";
    first = false;
    line += json_string(row.name) + ": {\"value\": " +
            json_number(row.value) + ", \"unit\": " + json_string(row.unit) +
            "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// The invocation's own work directory, removed on every exit path.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run_workload(const std::string& name, Options opt) {
  const WorkDir work(opt.work_dir + "/" + name + "-" +
                     std::to_string(getpid()));
  opt.work_dir = work.path();
  print_provenance(name, opt);
  std::unique_ptr<TraceContext> tc;
  if (opt.traced()) tc = std::make_unique<TraceContext>();
  MetricTable table =
      opt.traced() ? MetricTable(kPerLayer) : MetricTable(kEndToEnd);
  Outcome out;
  HostSpeed host;
  if (name == "service") {
    ServiceWorkload workload(opt, tc.get(), host);
    workload.run(out, table);
  } else {
    std::unique_ptr<BatchWorkload> workload;
    if (name == "psa") workload = std::make_unique<PsaWorkload>(opt);
    if (name == "leaflet") workload = std::make_unique<LeafletWorkload>(opt);
    if (name == "repex") workload = std::make_unique<RepexWorkload>(opt);
    drive_batch(*workload, name, opt, tc.get(), host, out, table);
  }
  if (opt.traced()) table.set("host.probe_ms", 1e3 * host.probe_s());
  std::printf("{\"host\": {\"probe_ms\": %s, \"reference_ms\": %s}}\n",
              json_number(1e3 * host.probe_s()).c_str(),
              json_number(1e3 * HostSpeed::kReferenceS).c_str());
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "bench_e2e %s: FAILED %s\n", name.c_str(),
                 error.c_str());
  }
  print_result(out, table);
  return out.failed == 0 ? 0 : 1;
}

constexpr const char* kWorkloads[] = {"psa", "leaflet", "repex", "service"};

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e [--workload "
               "psa|leaflet|repex|service] [--seed N] [--seconds S] "
               "[--trace DIR] [--work DIR] [--commit SHA] [--quick]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The numbers must describe the default program: refuse the knobs that
  // change kernel codegen or thread placement.
  for (const char* knob : {"MDTASK_KERNEL_POLICY", "MDTASK_PIN_THREADS"}) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "bench_e2e: unset %s: the benchmark measures the "
                           "default program\n", knob);
      return 2;
    }
  }
  Options opt;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
      seconds_set = true;
    } else if (arg == "--trace") {
      opt.trace_dir = value;
    } else if (arg == "--work") {
      opt.work_dir = value;
    } else if (arg == "--commit") {
      opt.commit = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (opt.quick && !seconds_set) opt.seconds = 0.5;
  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (opt.workload.empty() || opt.workload == w) workloads.push_back(w);
  }
  if (workloads.empty()) return usage(("unknown workload " + opt.workload).c_str());

  int status = 0;
  for (const std::string& workload : workloads) {
    try {
      status = std::max(status, run_workload(workload, opt));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e %s: %s\n", workload.c_str(), e.what());
      status = 1;
    }
  }
  return status;
}
