#include "mdtask/analysis/pairwise.h"

#include <cmath>

#include "mdtask/kernels/batch.h"

namespace mdtask::analysis {

std::vector<double> cdist(std::span<const traj::Vec3> xs,
                          std::span<const traj::Vec3> ys) {
  std::vector<double> out(xs.size() * ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double* row = out.data() + i * ys.size();
    for (std::size_t j = 0; j < ys.size(); ++j) {
      row[j] = traj::dist(xs[i], ys[j]);
    }
  }
  return out;
}

std::vector<Edge> edges_from_cdist_block(std::span<const traj::Vec3> xs,
                                         std::span<const traj::Vec3> ys,
                                         std::span<const std::uint32_t> x_ids,
                                         std::span<const std::uint32_t> y_ids,
                                         double cutoff) {
  // Materialize the block exactly as the Python pipelines do, then
  // threshold it. Same result as the streaming scan; different memory.
  const std::vector<double> block = cdist(xs, ys);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double* row = block.data() + i * ys.size();
    for (std::size_t j = 0; j < ys.size(); ++j) {
      const std::uint32_t a = x_ids[i];
      const std::uint32_t b = y_ids[j];
      if (a < b && row[j] <= cutoff) edges.push_back({a, b});
    }
  }
  return edges;
}

std::vector<Edge> edges_within_cutoff(std::span<const traj::Vec3> xs,
                                      std::span<const traj::Vec3> ys,
                                      std::span<const std::uint32_t> x_ids,
                                      std::span<const std::uint32_t> y_ids,
                                      double cutoff) {
  const kernels::FramePack rows = kernels::pack_points(xs);
  const kernels::FramePack cols = kernels::pack_points(ys);
  std::vector<kernels::IndexPair> pairs;
  kernels::cutoff_pairs_packed(rows, cols, cutoff,
                               kernels::default_policy(), pairs);
  // The kernel emits hits row-major, the order a scalar scan visits
  // them, so mapping to global ids with the a < b filter reproduces the
  // scalar edge list exactly.
  std::vector<Edge> edges;
  for (const auto& p : pairs) {
    const std::uint32_t a = x_ids[p.row];
    const std::uint32_t b = y_ids[p.col];
    if (a < b) edges.push_back({a, b});
  }
  return edges;
}

std::vector<Edge> edges_within_cutoff(std::span<const traj::Vec3> xs,
                                      std::span<const traj::Vec3> ys,
                                      std::span<const std::uint32_t> x_ids,
                                      std::span<const std::uint32_t> y_ids,
                                      double cutoff,
                                      kernels::KernelPolicy /*policy*/) {
  return edges_within_cutoff(xs, ys, x_ids, y_ids, cutoff);
}

}  // namespace mdtask::analysis
