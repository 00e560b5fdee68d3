// Host calibration of kernel costs.
//
// The virtual-time simulations charge each map task the cost of the real
// computation it represents. These constants are measured by running the
// actual C++ kernels from src/analysis on the calibration host over
// small inputs and fitting the per-unit cost. The machine profiles'
// `core_speed` then rescales them to the simulated testbed.
#pragma once

#include <array>
#include <cstddef>

#include "mdtask/kernels/policy.h"

namespace mdtask::perf {

/// Seconds-per-unit costs of the analysis kernels on the host.
struct KernelCosts {
  /// Hausdorff pair: seconds per (frame-pair comparison x atom), i.e.
  /// cost(pair) = hausdorff_unit * 2 * frames^2 * atoms.
  double hausdorff_unit = 0.0;
  /// cdist: seconds per materialized matrix element.
  double cdist_element = 0.0;
  /// BallTree construction: seconds per point (the log factor is folded
  /// in at typical sizes).
  double tree_build_point = 0.0;
  /// BallTree radius query: seconds per query point per log2(tree size).
  double tree_query_point_log = 0.0;
  /// Union-find connected components: seconds per edge.
  double cc_edge = 0.0;
  /// Partial-component summary merge: seconds per vertex entry.
  double merge_vertex = 0.0;
  /// 2D-RMSD frame pair: seconds per atom, unoptimized kernel
  /// (the "GNU -O0" build of Fig. 6).
  double rmsd2d_atom_naive = 0.0;
  /// Same, optimized kernel (the "Intel -O3" build of Fig. 6).
  double rmsd2d_atom_optimized = 0.0;

  // ---- per-tier distance-kernel figures (mdtask/kernels) ----
  // Indexed by static_cast<std::size_t>(kernels::KernelPolicy); measured
  // from the same workloads as the scalar figures above so the speedup
  // ratios are directly comparable.

  /// Hausdorff pair cost per (frame-pair x atom) under each policy.
  std::array<double, kernels::kPolicyCount> hausdorff_unit_by_policy{};
  /// 2D-RMSD cost per (frame-pair x atom) under each policy.
  std::array<double, kernels::kPolicyCount> rmsd2d_atom_by_policy{};

  /// Which policy produced the scalar figures the simulations charge
  /// (hausdorff_unit, cdist_element, rmsd2d_atom_*). Always kScalar:
  /// the DES reproduces the paper's unvectorized Python/C++ pipelines,
  /// so the virtual-time curves are unaffected by the batch kernels.
  kernels::KernelPolicy simulation_policy = kernels::KernelPolicy::kScalar;
};

/// Runs the micro-measurements (a few hundred ms total). Deterministic
/// inputs; repeated and median-filtered for stability.
KernelCosts calibrate_kernels();

/// Cached singleton: calibrates once per process.
const KernelCosts& host_kernel_costs();

/// Rescales host (C++) kernel costs to the paper's Python pipelines.
/// The paper ran MDAnalysis/NumPy/SciPy/scikit-learn implementations;
/// kernels that are thin wrappers over C (cdist) keep roughly C++ speed
/// while per-element Python paths (per-query BallTree calls, graph CC,
/// per-frame-pair metric dispatch) pay large constant factors. The
/// factors below were chosen so the simulated tree-vs-cdist crossover
/// lands between the 262k and 524k datasets, where the paper observed it
/// (Sec. 4.3.4); they do not affect cross-framework comparisons, which
/// share the same kernel costs.
KernelCosts python_pipeline_costs(const KernelCosts& host);

}  // namespace mdtask::perf
