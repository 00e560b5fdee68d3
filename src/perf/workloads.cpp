#include "mdtask/perf/workloads.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "mdtask/common/rng.h"
#include "mdtask/autoscale/task_wave.h"
#include "mdtask/fault/sim_faults.h"

namespace mdtask::perf {
namespace {

/// Per-core slowdown from hyper-threading: a logical core on Wrangler
/// delivers less than a physical Comet core (Sec. 4.2: "utilizing half
/// the nodes due to hyper-threading results in smaller speedup").
double core_slowdown(const sim::ClusterSpec& cluster) {
  return static_cast<double>(cluster.total_cores()) /
         cluster.total_effective_cores();
}

/// Shared-filesystem read time for `bytes` when `readers` stream
/// concurrently.
double fs_read_s(const sim::ClusterSpec& cluster, double bytes,
                 std::size_t readers) {
  const double share =
      cluster.machine.filesystem_Bps /
      static_cast<double>(std::max<std::size_t>(1, readers));
  return bytes / share;
}

/// Replays a list of task durations through the framework's dispatch
/// pipeline onto the cluster's cores. Returns time from t=0 (startup not
/// included) until the last task completes.
double list_schedule(const FrameworkModel& model,
                     const sim::ClusterSpec& cluster,
                     const std::vector<double>& durations,
                     std::vector<sim::ServiceInterval>* trace = nullptr,
                     trace::Tracer* tracer = nullptr,
                     std::uint32_t trace_pid = 0) {
  sim::Simulation simulation;
  sim::Resource scheduler(simulation, 1);
  sim::Resource cores(simulation, cluster.total_cores());
  cores.set_trace(trace);
  if (tracer != nullptr) {
    // Virtual-time spans: one "dispatch" track for the scheduler, one
    // "core-<n>" track per simulated core.
    scheduler.set_trace(tracer, trace_pid, "scheduler", "dispatch");
    cores.set_trace(tracer, trace_pid, "core", "task");
  }
  // The scheduler process runs on one of the machine's nodes, so its
  // service rate scales with the machine's core speed (Comet slightly
  // outperforms Wrangler in Figs. 2-3).
  const double dispatch =
      model.effective_dispatch_s(cluster.nodes) / cluster.machine.core_speed;
  std::uint64_t jitter_state = 0x9e3779b97f4a7c15ULL;
  for (double duration : durations) {
    // Deterministic multiplicative jitter in [1, 1 + 2*jitter] models
    // managed-runtime variance (see FrameworkModel::duration_jitter).
    const double u =
        static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
    const double factor = 1.0 + 2.0 * model.duration_jitter * u;
    const double total = duration * factor + model.task_overhead_s;
    scheduler.acquire(dispatch,
                      [&cores, total] { cores.acquire(total, [] {}); });
  }
  return simulation.run();
}

/// Broadcast phase duration for `bytes` across the cluster per the
/// framework's algorithm (Fig. 8).
double bcast_phase_s(const FrameworkModel& model,
                     const sim::ClusterSpec& cluster, double bytes) {
  const auto& net = cluster.machine.network;
  const auto b = static_cast<std::uint64_t>(bytes);
  // Endpoint serialization dominates the Python frameworks' broadcast
  // (pickle/unpickle happens once at the source and in parallel at the
  // receivers, so it is ~flat in node count — Fig. 8's observed shape).
  double endpoint = 0.0;
  if (model.bcast_endpoint_Bps > 0.0) {
    const double inflation =
        model.bcast == BcastKind::kReplicated ? 4.0 : 1.0;
    endpoint = 2.0 * bytes * inflation / model.bcast_endpoint_Bps;
  }
  switch (model.bcast) {
    case BcastKind::kLinear:
      // MPI ships one copy per node (ranks within a node share memory).
      return endpoint + net.bcast_linear_s(b, cluster.nodes);
    case BcastKind::kTree:
      return endpoint + net.bcast_tree_s(b, cluster.nodes);
    case BcastKind::kTorrent:
      return endpoint + net.bcast_torrent_s(b, cluster.nodes);
    case BcastKind::kReplicated: {
      // Dask's scatter(..., broadcast=True) materializes the dataset as
      // a Python list and ships an inflated replica per worker process
      // through the scheduler; ~flat in node count but several times
      // Spark's cost (Secs. 4.3.1, 4.4.2).
      constexpr double kPythonListInflation = 4.0;
      return endpoint +
             net.bcast_tree_s(
                 static_cast<std::uint64_t>(bytes * kPythonListInflation),
                 cluster.total_cores()) +
             net.latency_s * static_cast<double>(cluster.total_cores());
    }
  }
  return 0.0;
}

/// The fault-recovery scope a framework model simulates under.
fault::EngineId engine_for(const FrameworkModel& model) {
  const std::string_view name = model.name;
  if (name == "Spark") return fault::EngineId::kSpark;
  if (name == "Dask") return fault::EngineId::kDask;
  if (name == "RADICAL-Pilot") return fault::EngineId::kRp;
  return fault::EngineId::kMpi;
}

/// One physics-derived failure condition of a Leaflet cell: the fault it
/// injects plus the paper-documented cause reported if no recovery
/// policy survives it.
struct PhysicsFault {
  fault::FaultKind kind;
  const char* message;
};

/// Resolves physics faults through the engine's recovery policy. These
/// faults fire on every task and every attempt (an oversized cdist block
/// is just as oversized after a lineage re-execution or a worker
/// restart), so resolve_plan's verdict is what turns deterministic
/// physics into the paper's Fig. 7 failure cells.
bool survives_physics(const std::vector<PhysicsFault>& physics,
                      const FrameworkModel& model, SimOutcome& outcome,
                      std::uint64_t seed) {
  for (const PhysicsFault& pf : physics) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.schedule.push_back({pf.kind, fault::FaultSpec::kEveryTask,
                             fault::FaultSpec::kEveryAttempt});
    if (!fault::resolve_plan(plan, engine_for(model)).survives) {
      outcome.feasible = false;
      outcome.failure = pf.message;
      return false;
    }
  }
  return true;
}

}  // namespace

SimOutcome simulate_throughput(const FrameworkModel& model,
                               const sim::ClusterSpec& cluster,
                               std::size_t n_tasks) {
  SimOutcome outcome;
  outcome.tasks = n_tasks;
  if (model.max_tasks != 0 && n_tasks > model.max_tasks) {
    outcome.feasible = false;
    outcome.failure = std::string(model.name) +
                      " could not manage this many tasks (Sec. 4.1)";
    return outcome;
  }
  const std::vector<double> durations(n_tasks, 0.0);
  const double schedule_s = list_schedule(model, cluster, durations);
  outcome.makespan_s = model.startup_s + schedule_s;
  outcome.tasks_per_s =
      static_cast<double>(n_tasks) / std::max(1e-12, schedule_s);
  return outcome;
}

SimOutcome simulate_psa(const FrameworkModel& model,
                        const sim::ClusterSpec& cluster,
                        const PsaWorkload& workload,
                        const KernelCosts& costs) {
  SimOutcome outcome;
  const std::size_t cores = cluster.total_cores();
  // One task per core (Sec. 4.2): block the N^2 pair matrix into
  // ~cores tasks via Alg. 2.
  const auto k = static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>(std::max<std::size_t>(1, cores)))));
  const std::size_t n1 = std::max<std::size_t>(
      1, (workload.trajectories + k - 1) / k);
  const std::size_t blocks_per_side =
      (workload.trajectories + n1 - 1) / n1;
  outcome.tasks = blocks_per_side * blocks_per_side;

  const double pair_cost = costs.hausdorff_unit * 2.0 *
                           static_cast<double>(workload.frames) *
                           static_cast<double>(workload.frames) *
                           static_cast<double>(workload.atoms) *
                           core_slowdown(cluster);
  const double traj_bytes =
      static_cast<double>(workload.frames) * workload.atoms * 12.0;

  std::vector<double> durations;
  durations.reserve(outcome.tasks);
  for (std::size_t br = 0; br < blocks_per_side; ++br) {
    for (std::size_t bc = 0; bc < blocks_per_side; ++bc) {
      const std::size_t rows =
          std::min(n1, workload.trajectories - br * n1);
      const std::size_t cols =
          std::min(n1, workload.trajectories - bc * n1);
      const double compute =
          static_cast<double>(rows * cols) * pair_cost;
      const double read = fs_read_s(
          cluster, static_cast<double>(rows + cols) * traj_bytes, cores);
      durations.push_back(compute + read);
      outcome.compute_s += compute;
    }
  }
  // Non-scaling serial phase: dataset staging onto the allocation plus
  // the driver-side result assembly/write. This is the fixed cost the
  // paper's Sec. 4.2 credits for the ~6x (not 16x) speedups from 16 to
  // 256 cores.
  constexpr double kSerialStaging = 3.0;
  outcome.driver_s = kSerialStaging +
                     static_cast<double>(workload.trajectories) *
                         workload.trajectories * 8.0 /
                         cluster.machine.filesystem_Bps;
  outcome.driver_s +=
      static_cast<double>(outcome.tasks) * model.driver_result_s;
  outcome.makespan_s = model.startup_s + outcome.driver_s +
                       list_schedule(model, cluster, durations);
  return outcome;
}

SimOutcome simulate_cpptraj(const sim::ClusterSpec& cluster,
                            const PsaWorkload& workload, double atom_cost) {
  SimOutcome outcome;
  // CPPTraj distributes trajectory pairs over MPI ranks; each pair costs
  // a full frames^2 2D-RMSD block (Sec. 2.2).
  const std::size_t pairs =
      workload.trajectories * (workload.trajectories - 1) / 2;
  outcome.tasks = pairs;
  const double pair_cost = atom_cost *
                           static_cast<double>(workload.frames) *
                           static_cast<double>(workload.frames) *
                           static_cast<double>(workload.atoms) *
                           core_slowdown(cluster);
  const double traj_bytes =
      static_cast<double>(workload.frames) * workload.atoms * 12.0;

  const FrameworkModel mpi = mpi_model();
  std::vector<double> durations(
      pairs, pair_cost + fs_read_s(cluster, 2.0 * traj_bytes,
                                   cluster.total_cores()));
  outcome.compute_s = pair_cost * static_cast<double>(pairs);
  // Gather of the per-pair results at rank 0.
  outcome.shuffle_s = cluster.machine.network.gather_s(
      pairs * 8, cluster.total_cores());
  outcome.makespan_s = mpi.startup_s +
                       list_schedule(mpi, cluster, durations) +
                       outcome.shuffle_s;
  return outcome;
}

/// Map-task compute durations for one Leaflet Finder cell. Used by both
/// simulate_leaflet and leaflet_utilization_timeline so the two can
/// never drift apart.
static std::vector<double> detail_leaflet_durations(
    const FrameworkModel& model,
                                             const sim::ClusterSpec& cluster,
                                             int approach,
                                             const LfWorkload& workload,
                                             const KernelCosts& costs) {
  (void)model;
  const double atoms = static_cast<double>(workload.atoms);
  const double edges = static_cast<double>(workload.edges);
  const double slow = core_slowdown(cluster);
  std::vector<double> durations;
  if (approach == 1) {
    const std::size_t tasks = workload.target_tasks;
    const double chunk = atoms / static_cast<double>(tasks);
    durations.assign(tasks, chunk * atoms * costs.cdist_element * slow);
    return durations;
  }
  const auto g = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::sqrt(static_cast<double>(workload.target_tasks))));
  const double block_side =
      atoms / static_cast<double>(std::max<std::size_t>(1, g));
  // Square block grid; contact edges live in the g diagonal blocks
  // (the membrane graph is spatially local), so diagonal tasks carry
  // the CC work — real stragglers, as in the measured runs.
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const bool diagonal = i == j;
      double d = 0.0;
      if (approach == 4) {
        d = block_side * costs.tree_build_point +
            block_side * costs.tree_query_point_log *
                std::log2(std::max(2.0, block_side));
      } else {
        d = block_side * block_side * costs.cdist_element;
      }
      if (approach >= 3 && diagonal) {
        d += (edges / static_cast<double>(g)) * costs.cc_edge;
      }
      durations.push_back(d * slow);
    }
  }
  return durations;
}

std::vector<double> leaflet_task_durations(const FrameworkModel& model,
                                           const sim::ClusterSpec& cluster,
                                           int approach,
                                           const LfWorkload& workload,
                                           const KernelCosts& costs) {
  return detail_leaflet_durations(model, cluster, approach, workload, costs);
}

SimOutcome simulate_leaflet(const FrameworkModel& model,
                            const sim::ClusterSpec& cluster, int approach,
                            const LfWorkload& workload,
                            const KernelCosts& costs, std::uint64_t seed) {
  SimOutcome outcome;
  const double atoms = static_cast<double>(workload.atoms);
  const double edges = static_cast<double>(workload.edges);
  const double mem_per_core = cluster.memory_per_core_bytes();
  const auto& net = cluster.machine.network;

  // ---- feasibility: the paper's memory walls, expressed as fault
  // injections resolved by the engine's recovery policy ----
  std::vector<PhysicsFault> physics;
  if (approach == 1) {
    // Each map task cdists its chunk against the whole system.
    const double chunk =
        atoms / static_cast<double>(workload.target_tasks);
    const double block_bytes = chunk * atoms * 8.0;
    if (block_bytes > mem_per_core) {
      physics.push_back(
          {fault::FaultKind::kWorkerOomKill,
           "cdist chunk x full-system block exceeds per-core memory "
           "(approach 1 does not scale past 524k atoms, Sec. 4.3.1)"});
    }
    if (model.bcast == BcastKind::kReplicated) {
      // Dask materializes the broadcast as a per-element Python list in
      // the single scheduler process; beyond ~262k atoms the scheduler
      // cannot hold the in-flight replicas (Sec. 4.3.1: "this did not
      // allow broadcasting the 524k atom dataset").
      constexpr double kListBytesPerAtom = 4.0 * 12.0;
      constexpr double kInFlight = 128.0;
      constexpr double kSchedulerMemory = 2.0 * (1ull << 30);
      if (atoms * kListBytesPerAtom * kInFlight > kSchedulerMemory) {
        physics.push_back(
            {fault::FaultKind::kNetworkPartition,
             "Dask list-based broadcast cannot ship the dataset "
             "(Sec. 4.3.1)"});
      }
    }
  }

  // 2-D partitioning for approaches 2-4 (Alg. 2 layout over atoms).
  // Square g x g block layout with g = floor(sqrt(target_tasks)): the
  // paper's "1024 partitions" are exactly 32 x 32 blocks, which is why
  // its task counts divide evenly into the 32..256-core allocations.
  const auto g = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::sqrt(static_cast<double>(workload.target_tasks))));
  const double block_side = atoms / static_cast<double>(std::max<std::size_t>(1, g));
  if (approach == 2 || approach == 3) {
    const double block_bytes = block_side * block_side * 8.0;
    if (block_bytes > mem_per_core) {
      physics.push_back(
          {fault::FaultKind::kWorkerOomKill,
           "cdist block exceeds per-core memory; repartition with more "
           "tasks (the paper used 42k tasks at 4M atoms, Sec. 4.3)"});
    }
  }
  if (approach == 3 && model.bcast == BcastKind::kReplicated &&
      workload.atoms >= 4'000'000) {
    // Paper, Sec. 4.3.3: at 4M atoms Dask workers kept hitting the 95%
    // memory watermark and restarting while accumulating partials.
    physics.push_back(
        {fault::FaultKind::kWorkerOomKill,
         "Dask workers restart at 95% memory watermark (Sec. 4.3.3)"});
  }
  if (!survives_physics(physics, model, outcome, seed)) return outcome;

  // ---- map-task durations (shared with the utilization profiler) ----
  const std::vector<double> durations =
      detail_leaflet_durations(model, cluster, approach, workload, costs);
  for (double d : durations) outcome.compute_s += d;
  outcome.tasks = durations.size();
  if (model.max_tasks != 0 && outcome.tasks > model.max_tasks) {
    outcome.feasible = false;
    outcome.failure = std::string(model.name) +
                      " cannot manage this many tasks (Sec. 4.1)";
    return outcome;
  }

  // ---- communication phases (Table 2) ----
  const double position_bytes = atoms * 12.0;
  if (approach == 1) {
    outcome.bcast_s = bcast_phase_s(model, cluster, position_bytes);
  }
  if (approach <= 2) {
    // Shuffle/gather the edge list (O(E)); CC runs serially at the
    // driver — the serial tail that caps approach-1/2 speedups.
    outcome.shuffle_s =
        net.gather_s(static_cast<std::uint64_t>(edges * 8.0),
                     outcome.tasks) *
        model.shuffle_factor;
    outcome.driver_s = edges * costs.cc_edge;
  } else {
    // Shuffle partial components (O(n)) and merge (Sec. 4.3.3: >50%
    // less shuffle volume); the merge is far cheaper than full CC.
    outcome.shuffle_s =
        net.shuffle_s(static_cast<std::uint64_t>(atoms * 8.0),
                      cluster.total_cores()) *
        model.shuffle_factor;
    outcome.driver_s = atoms * costs.merge_vertex;
  }
  if (!model.has_shuffle) {
    // RP stages everything through the shared filesystem instead.
    const double staged =
        approach <= 2 ? edges * 8.0 : atoms * 8.0;
    outcome.shuffle_s =
        2.0 * staged / cluster.machine.filesystem_Bps +
        static_cast<double>(outcome.tasks) * 1e-3;
  }

  // Driver-side per-result handling (a serialized tail for frameworks
  // that collect partition outputs through one driver process).
  outcome.driver_s +=
      static_cast<double>(outcome.tasks) * model.driver_result_s;

  outcome.makespan_s = model.startup_s + outcome.bcast_s +
                       list_schedule(model, cluster, durations) +
                       outcome.shuffle_s + outcome.driver_s;
  return outcome;
}

std::vector<double> leaflet_utilization_timeline(
    const FrameworkModel& model, const sim::ClusterSpec& cluster,
    int approach, const LfWorkload& workload, const KernelCosts& costs,
    std::size_t buckets, trace::Tracer* tracer, std::uint32_t trace_pid,
    std::uint64_t seed) {
  // Recreate the cell's map-task durations exactly as simulate_leaflet
  // does (shared helper below keeps the two in lockstep).
  const auto check = simulate_leaflet(model, cluster, approach, workload,
                                      costs, seed);
  if (!check.feasible) return {};
  const auto durations =
      detail_leaflet_durations(model, cluster, approach, workload, costs);
  std::vector<sim::ServiceInterval> trace;
  list_schedule(model, cluster, durations, &trace, tracer, trace_pid);
  return sim::utilization_timeline(trace, cluster.total_cores(), buckets);
}

double simulate_straggler_makespan(const sim::ClusterSpec& cluster,
                                   std::size_t n_tasks, double task_s,
                                   double straggler_fraction,
                                   double straggler_factor,
                                   const fault::SpeculationConfig& policy,
                                   std::uint64_t seed) {
  // The replay runs through the task-wave DES: each straggling task is
  // a scheduled FaultSpec and the mitigation knob is the plan's
  // SpeculationConfig, so this bench exercises the same machinery as
  // the engine runtimes. The straggler-selection stream is split off
  // the published constant by golden-gamma multiples of the seed delta:
  // the default seed reproduces the published bench CSVs exactly.
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.speculation = policy;
  std::uint64_t rng_state =
      0x2545f4914f6cdd1dULL +
      (seed - fault::FaultPlan{}.seed) * 0x9e3779b97f4a7c15ULL;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const double u =
        static_cast<double>(splitmix64(rng_state) >> 11) * 0x1.0p-53;
    if (u < straggler_fraction) {
      plan.schedule.push_back({fault::FaultKind::kStraggler, t,
                               fault::FaultSpec::kEveryAttempt,
                               straggler_factor, 0.0});
    }
  }
  const std::vector<double> durations(n_tasks, task_s);
  return autoscale::simulate_task_wave(cluster.total_cores(), durations,
                                       plan, fault::EngineId::kSpark)
      .makespan_s;
}

double simulate_elastic_makespan(std::size_t n_tasks, double task_s,
                                 std::size_t initial_cores,
                                 std::size_t added_cores, double grow_at_s) {
  // The single-grow-event scenario expressed as a MembershipPlan and
  // replayed through the task-wave DES's membership machinery; event
  // ordering matches the original inline simulation, so the published
  // future_elastic numbers are unchanged.
  fault::MembershipPlan membership;
  if (added_cores > 0) {
    membership.schedule.push_back(
        {fault::MembershipKind::kNodeJoin, grow_at_s, added_cores});
  }
  const std::vector<double> durations(n_tasks, task_s);
  return autoscale::simulate_task_wave(initial_cores, durations,
                                       fault::FaultPlan{},
                                       fault::EngineId::kSpark, nullptr,
                                       &membership)
      .makespan_s;
}

}  // namespace mdtask::perf
