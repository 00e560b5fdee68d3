#include "mdtask/perf/calibration.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mdtask/analysis/balltree.h"
#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/common/rng.h"
#include "mdtask/common/timer.h"
#include "mdtask/cpptraj/rmsd2d.h"
#include "mdtask/kernels/batch.h"
#include "mdtask/traj/generators.h"

namespace mdtask::perf {
namespace {

/// Runs `body` `trials` times and returns the median duration.
template <typename F>
double median_time(int trials, F body) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    WallTimer timer;
    body();
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<traj::Vec3> random_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<traj::Vec3> pts(n);
  for (auto& p : pts) {
    p = {static_cast<float>(rng.uniform(0, 50)),
         static_cast<float>(rng.uniform(0, 50)),
         static_cast<float>(rng.uniform(0, 50))};
  }
  return pts;
}

}  // namespace

KernelCosts calibrate_kernels() {
  KernelCosts costs;

  // Hausdorff: two 24-frame, 512-atom trajectories, exact kScalar tier:
  // the DES reproduces the paper's unvectorized pipelines. Alg. 1 as the
  // paper ran it evaluates every frame pair in both directions, so the
  // two directed scans are timed, not the one-pass naive kernel that
  // computes each distance once.
  {
    traj::ProteinTrajectoryParams p;
    p.frames = 24;
    p.atoms = 512;
    p.seed = 11;
    const auto a = traj::make_protein_trajectory(p);
    p.seed = 12;
    const auto b = traj::make_protein_trajectory(p);
    const double units =
        2.0 * static_cast<double>(p.frames) * p.frames * p.atoms;
    volatile double sink = 0.0;
    const auto policy = kernels::KernelPolicy::kScalar;
    const double t = median_time(5, [&] {
      const auto pa = kernels::pack_trajectory(a);
      const auto pb = kernels::pack_trajectory(b);
      sink = sink + std::max(kernels::hausdorff_directed_packed(
                                 pa, pb, /*early_break=*/false, policy),
                             kernels::hausdorff_directed_packed(
                                 pb, pa, /*early_break=*/false, policy));
    });
    costs.hausdorff_unit = t / units;
  }

  // cdist: 512 x 512 block.
  {
    const auto xs = random_cloud(512, 21);
    const auto ys = random_cloud(512, 22);
    volatile double sink = 0.0;
    const double t = median_time(5, [&] {
      auto block = analysis::cdist(xs, ys);
      sink = sink + block[1000];
    });
    costs.cdist_element = t / (512.0 * 512.0);
  }

  // BallTree build + query over 8192 points.
  {
    const auto pts = random_cloud(8192, 31);
    const double build = median_time(3, [&] {
      analysis::BallTree tree(pts, 32);
      volatile auto n = tree.node_count();
      (void)n;
    });
    costs.tree_build_point = build / 8192.0;

    analysis::BallTree tree(pts, 32);
    std::vector<std::uint32_t> hits;
    const double query = median_time(3, [&] {
      hits.clear();
      for (std::size_t i = 0; i < 1024; ++i) {
        tree.query_radius(pts[i], 3.0, hits);
      }
    });
    costs.tree_query_point_log = query / (1024.0 * std::log2(8192.0));
  }

  // Connected components over a 64k-edge random graph.
  {
    Xoshiro256StarStar rng(41);
    std::vector<analysis::Edge> edges(65536);
    for (auto& e : edges) {
      auto a = static_cast<std::uint32_t>(rng.bounded(20000));
      auto b = static_cast<std::uint32_t>(rng.bounded(20000));
      if (a == b) b = (b + 1) % 20000;
      e = {std::min(a, b), std::max(a, b)};
    }
    const double t = median_time(3, [&] {
      auto labels = analysis::connected_components_union_find(20000, edges);
      volatile auto n = labels.size();
      (void)n;
    });
    costs.cc_edge = t / 65536.0;

    // The DES charges the paper's reduce, whose merge turns both
    // summaries back into edges; the library's linear merge is not that
    // cost model.
    const auto part = analysis::partial_components(edges);
    const double merge = median_time(3, [&] {
      auto merged = analysis::merge_partials_by_edges(part, part);
      volatile auto n = merged.vertex_root.size();
      (void)n;
    });
    costs.merge_vertex =
        merge / (2.0 * static_cast<double>(part.vertex_root.size()));
  }

  // 2D-RMSD kernels (Fig. 6's two "builds").
  {
    traj::ProteinTrajectoryParams p;
    p.frames = 24;
    p.atoms = 1024;
    p.seed = 51;
    const auto t1 = traj::make_protein_trajectory(p);
    p.seed = 52;
    const auto t2 = traj::make_protein_trajectory(p);
    const double pairs = static_cast<double>(p.frames) * p.frames;
    volatile double sink = 0.0;
    const double naive = median_time(3, [&] {
      sink = sink + cpptraj::rmsd2d_block_reference(t1, t2).back();
    });
    costs.rmsd2d_atom_naive = naive / (pairs * static_cast<double>(p.atoms));
    const double opt = median_time(3, [&] {
      sink = sink + cpptraj::rmsd2d_block_optimized(t1, t2).back();
    });
    costs.rmsd2d_atom_optimized =
        opt / (pairs * static_cast<double>(p.atoms));
  }

  return costs;
}

KernelCosts python_pipeline_costs(const KernelCosts& host) {
  KernelCosts c = host;
  c.hausdorff_unit *= 1.2;         // dRMS is vectorized NumPy (~C speed)
  c.cdist_element *= 1.3;          // SciPy cdist is C underneath
  c.tree_build_point *= 25.0;      // sklearn build w/ Python array prep
  c.tree_query_point_log *= 30.0;  // per-query Python dispatch
  c.cc_edge *= 30.0;               // Python graph representation
  c.merge_vertex *= 30.0;
  // rmsd2d_* stay host-speed: CPPTraj is C++ (Fig. 6).
  return c;
}

const KernelCosts& host_kernel_costs() {
  static const KernelCosts costs = calibrate_kernels();
  return costs;
}

}  // namespace mdtask::perf
