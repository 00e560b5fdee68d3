#include "mdtask/stream/sim_io.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

namespace mdtask::stream {
namespace {

/// Per-core streaming state. Reads are issued in task order and tiles
/// consumed in task order (in-order double buffering); `buffered`
/// counts issued-but-unconsumed tiles (inflight or decoded), which is
/// exactly what the prefetch depth bounds.
struct CoreState {
  std::vector<std::size_t> tasks;  ///< global task indices, in order
  std::size_t next_issue = 0;
  std::size_t next_consume = 0;
  std::size_t buffered = 0;
  bool computing = false;
  double last_compute_end = 0.0;
  /// local task index -> virtual time its tile became ready.
  std::map<std::size_t, double> ready;
};

struct WaveState {
  sim::Simulation sim;
  sim::Resource fs;
  std::vector<CoreState> cores;
  const std::vector<StreamTask>* tasks = nullptr;
  const sim::FileSystemModel* model = nullptr;
  StreamWaveOptions options;
  std::optional<fault::FaultInjector> injector;
  StreamWaveOutcome outcome;
  std::vector<trace::Track> core_tracks;

  WaveState(std::size_t n_streams) : fs(sim, n_streams) {}
};

/// The modelled service time of one task's read, fault plan applied:
/// each injected transient read error burns a full transfer before the
/// clean one succeeds (the checksum rejects it after the bytes moved);
/// an FS stall adds its delay once. Recovery decisions are logged with
/// the virtual issue time. Returns false when the retry budget gives up.
bool read_service_s(WaveState& w, std::size_t task, double* service) {
  const StreamTask& t = (*w.tasks)[task];
  const double clean = w.model->read_s(t.read_bytes);
  *service = clean;
  w.outcome.reads += 1;
  if (!w.injector.has_value()) return true;
  const fault::FaultPlan& plan = w.injector->plan();
  const int budget = std::max(1, plan.retry.max_attempts);
  double total = 0.0;
  for (int attempt = 0;; ++attempt) {
    const fault::FaultSpec spec =
        w.injector->decide(static_cast<std::uint64_t>(task), attempt);
    if (spec.kind == fault::FaultKind::kFilesystemStall) {
      total += spec.delay_s + clean;
      break;
    }
    if (spec.kind != fault::FaultKind::kTransientReadError) {
      total += clean;  // clean read; other kinds are task-level faults
      break;
    }
    total += clean;  // the garbage transfer still moved the bytes
    w.outcome.reads += 1;
    w.outcome.retried_reads += 1;
    const fault::RecoveryAction action = fault::recovery_action(
        w.options.engine, spec.kind, attempt, plan.retry);
    const double backoff = fault::backoff_for_attempt(plan.retry, attempt + 1);
    if (w.options.log != nullptr) {
      w.options.log->record({w.options.engine,
                             static_cast<std::uint64_t>(task), attempt,
                             spec.kind, action, backoff,
                             w.sim.now() * 1e6});
    }
    if (action == fault::RecoveryAction::kGiveUp || attempt + 1 >= budget) {
      if (w.outcome.completed) {
        w.outcome.completed = false;
        w.outcome.failure = "task " + std::to_string(task) +
                            " read gave up after " +
                            std::to_string(attempt + 1) + " attempts";
      }
      break;  // deliver the tile anyway so the wave drains
    }
    total += backoff;
  }
  *service = total;
  return true;
}

void try_compute(WaveState& w, std::size_t c);

void issue_reads(WaveState& w, std::size_t c) {
  CoreState& core = w.cores[c];
  const std::size_t depth =
      w.options.prefetch ? std::max<std::size_t>(1, w.options.prefetch_depth)
                         : 1;
  while (core.next_issue < core.tasks.size() && core.buffered < depth) {
    const std::size_t local = core.next_issue++;
    const std::size_t task = core.tasks[local];
    core.buffered += 1;
    double service = 0.0;
    read_service_s(w, task, &service);
    w.outcome.read_s += service;
    w.fs.acquire(service, [&w, c, local, service] {
      CoreState& done = w.cores[c];
      done.ready.emplace(local, w.sim.now());
      if (w.options.tracer != nullptr) {
        w.options.tracer->complete(w.core_tracks[c], "io:read-shard", "io",
                                   (w.sim.now() - service) * 1e6,
                                   service * 1e6);
      }
      try_compute(w, c);
    });
  }
}

void try_compute(WaveState& w, std::size_t c) {
  CoreState& core = w.cores[c];
  if (core.computing || core.next_consume >= core.tasks.size()) return;
  const auto it = core.ready.find(core.next_consume);
  if (it == core.ready.end()) return;  // tile not decoded yet
  const std::size_t local = core.next_consume++;
  const std::size_t task = core.tasks[local];
  core.ready.erase(it);
  core.buffered -= 1;
  core.computing = true;
  const double start = w.sim.now();
  // Time between the previous compute ending and this one starting is
  // the core starving on I/O — the straggler signal Fig. 7 studies.
  w.outcome.io_wait_s += start - core.last_compute_end;
  const double duration = (*w.tasks)[task].compute_s;
  w.outcome.compute_s += duration;
  if (w.options.tracer != nullptr) {
    w.options.tracer->complete(w.core_tracks[c], "task", "task", start * 1e6,
                               duration * 1e6);
  }
  if (w.options.prefetch) {
    issue_reads(w, c);  // consuming the tile freed a buffer slot
  }
  w.sim.after(duration, [&w, c] {
    CoreState& done = w.cores[c];
    done.computing = false;
    done.last_compute_end = w.sim.now();
    w.outcome.makespan_s = std::max(w.outcome.makespan_s, w.sim.now());
    if (!w.options.prefetch) {
      issue_reads(w, c);  // serial mode: read k+1 starts only now
    }
    try_compute(w, c);
  });
}

}  // namespace

StreamWaveOutcome simulate_stream_wave(std::size_t cores,
                                       const std::vector<StreamTask>& tasks,
                                       const sim::FileSystemModel& fs,
                                       const StreamWaveOptions& options) {
  cores = std::max<std::size_t>(1, cores);
  WaveState w(fs.max_streams());
  w.tasks = &tasks;
  w.model = &fs;
  w.options = options;
  if (options.plan != nullptr && !options.plan->empty()) {
    w.injector.emplace(*options.plan, options.engine);
  }
  w.cores.resize(cores);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    w.cores[t % cores].tasks.push_back(t);  // block-cyclic, MPI style
  }
  if (options.tracer != nullptr) {
    const std::uint32_t pid = options.tracer->process("stream-sim");
    for (std::size_t c = 0; c < cores; ++c) {
      w.core_tracks.push_back(
          options.tracer->thread(pid, "core-" + std::to_string(c)));
    }
  }
  for (std::size_t c = 0; c < cores; ++c) {
    issue_reads(w, c);
  }
  w.sim.run();
  return w.outcome;
}

}  // namespace mdtask::stream
