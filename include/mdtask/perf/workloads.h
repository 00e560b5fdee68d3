// Virtual-time replays of the paper's experiments.
//
// Each simulate_* function builds the workload's task set, charges every
// task its calibrated kernel cost (perf/calibration.h), schedules the
// tasks through the framework model's dispatch pipeline onto a simulated
// cluster (sim/simulation.h), adds the communication phases the
// architecture implies (Table 2), and returns the virtual makespan plus
// a phase breakdown. Infeasible configurations — the paper's OOM and
// scaling failures — are reported with the documented cause instead of a
// number (Secs. 4.1, 4.3.1-4.3.3).
#pragma once

#include <string>

#include "mdtask/fault/fault.h"
#include "mdtask/perf/calibration.h"
#include "mdtask/perf/framework_model.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::perf {

/// Result of one simulated experiment cell.
struct SimOutcome {
  bool feasible = true;
  std::string failure;      ///< paper-documented cause when !feasible

  double makespan_s = 0.0;  ///< virtual wall time, including startup
  double compute_s = 0.0;   ///< aggregate task compute (core-seconds)
  double bcast_s = 0.0;     ///< broadcast phase (Fig. 8 decomposition)
  double shuffle_s = 0.0;   ///< shuffle / gather phase
  double driver_s = 0.0;    ///< serial driver work (final CC, min-max)
  double tasks_per_s = 0.0; ///< throughput where applicable
  std::size_t tasks = 0;
};

// ---- Figs. 2-3: zero-workload task throughput ----

SimOutcome simulate_throughput(const FrameworkModel& model,
                               const sim::ClusterSpec& cluster,
                               std::size_t n_tasks);

// ---- Figs. 4-5: PSA Hausdorff ----

struct PsaWorkload {
  std::size_t trajectories = 128;
  std::size_t atoms = 3341;
  std::size_t frames = 102;
};

SimOutcome simulate_psa(const FrameworkModel& model,
                        const sim::ClusterSpec& cluster,
                        const PsaWorkload& workload,
                        const KernelCosts& costs);

// ---- Fig. 6: CPPTraj 2D-RMSD ----

/// `atom_cost` selects the build: costs.rmsd2d_atom_naive (GNU -O0) or
/// costs.rmsd2d_atom_optimized (Intel -O3).
SimOutcome simulate_cpptraj(const sim::ClusterSpec& cluster,
                            const PsaWorkload& workload, double atom_cost);

// ---- Figs. 7-9: Leaflet Finder ----

struct LfWorkload {
  std::size_t atoms = 131072;
  std::size_t edges = 896000;     ///< contact-graph edges (Sec. 4.3)
  std::size_t target_tasks = 1024;
};

/// `seed` seeds the fault plans the cell's physics-derived failure
/// conditions are resolved through (the Fig. 7 FAIL cells are scheduled
/// faults, so every seed reproduces the same published verdicts).
SimOutcome simulate_leaflet(const FrameworkModel& model,
                            const sim::ClusterSpec& cluster, int approach,
                            const LfWorkload& workload,
                            const KernelCosts& costs,
                            std::uint64_t seed = 42);

/// Replays one Leaflet Finder cell and returns the per-bucket core
/// utilization over the compute phase (the straggler structure behind
/// Fig. 7's speedup caps). Returns an empty vector for infeasible cells.
/// With a tracer, the replay's scheduler dispatches and per-core task
/// holds are mirrored as virtual-time spans under `trace_pid`.
std::vector<double> leaflet_utilization_timeline(
    const FrameworkModel& model, const sim::ClusterSpec& cluster,
    int approach, const LfWorkload& workload, const KernelCosts& costs,
    std::size_t buckets, trace::Tracer* tracer = nullptr,
    std::uint32_t trace_pid = 0, std::uint64_t seed = 42);

/// Map-task compute durations of one Leaflet Finder cell — the exact
/// task set simulate_leaflet schedules. Exposed so the streamed-I/O
/// replay (stream/sim_io.h) can pair each task's compute cost with its
/// shard read bytes and never drift from the Fig. 7 model.
std::vector<double> leaflet_task_durations(const FrameworkModel& model,
                                           const sim::ClusterSpec& cluster,
                                           int approach,
                                           const LfWorkload& workload,
                                           const KernelCosts& costs);

// ---- Sec. 6 future-work extensions (ablation benches) ----

/// Replays `n_tasks` of nominal duration `task_s` with heavy-tailed
/// straggler jitter (a fraction of tasks run `straggler_factor` x
/// longer) with and without speculation support — `policy` launches a
/// backup copy on another core once a task has run threshold_factor x
/// its nominal duration and the earlier finisher wins (Spark's
/// speculative execution, the paper's Sec.-6 straggler mitigation).
/// Returns the makespan. `seed` selects the straggler set; the default
/// reproduces the published bench stream exactly.
double simulate_straggler_makespan(const sim::ClusterSpec& cluster,
                                   std::size_t n_tasks, double task_s,
                                   double straggler_fraction,
                                   double straggler_factor,
                                   const fault::SpeculationConfig& policy,
                                   std::uint64_t seed = 42);

/// Elastic-pool what-if ("dynamically scale the resource pool"): run
/// `n_tasks` x `task_s` on `initial_cores`, adding `added_cores` at
/// time `grow_at_s`. Returns the makespan.
double simulate_elastic_makespan(std::size_t n_tasks, double task_s,
                                 std::size_t initial_cores,
                                 std::size_t added_cores, double grow_at_s);

}  // namespace mdtask::perf
