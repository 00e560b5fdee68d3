#include "mdtask/analysis/clustering.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "mdtask/analysis/graph.h"

namespace mdtask::analysis {
namespace {

/// Lance-Williams coefficients for the supported linkages: the distance
/// from a merged cluster (a u b) to any other cluster c is
///   alpha_a * d(a,c) + alpha_b * d(b,c) + gamma * |d(a,c) - d(b,c)|.
struct LanceWilliams {
  double alpha_a, alpha_b, gamma;
};

LanceWilliams coefficients(Linkage linkage, double size_a, double size_b) {
  switch (linkage) {
    case Linkage::kSingle: return {0.5, 0.5, -0.5};
    case Linkage::kComplete: return {0.5, 0.5, 0.5};
    case Linkage::kAverage:
      return {size_a / (size_a + size_b), size_b / (size_a + size_b), 0.0};
  }
  return {0.5, 0.5, 0.0};
}

}  // namespace

Result<Dendrogram> hierarchical_cluster(const DistanceMatrix& distances,
                                        Linkage linkage) {
  const std::size_t n = distances.size();
  if (n == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "cannot cluster an empty distance matrix");
  }
  Dendrogram out;
  out.leaves = n;
  if (n == 1) return out;

  // Working copy of the condensed matrix plus cluster bookkeeping.
  // O(n^3) naive nearest-pair search: fine for PSA-sized inputs
  // (n = 128..256 trajectories).
  std::vector<double> d(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d[i * n + j] = distances.at(i, j);
  }
  std::vector<bool> alive(n, true);
  std::vector<std::uint32_t> cluster_id(n);   // current dendrogram id
  std::vector<std::uint32_t> cluster_size(n, 1);
  for (std::uint32_t i = 0; i < n; ++i) cluster_id[i] = i;

  std::uint32_t next_id = static_cast<std::uint32_t>(n);
  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Find the closest pair of alive clusters.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!alive[j]) continue;
        if (d[i * n + j] < best) {
          best = d[i * n + j];
          bi = i;
          bj = j;
        }
      }
    }
    const auto size_a = static_cast<double>(cluster_size[bi]);
    const auto size_b = static_cast<double>(cluster_size[bj]);
    out.steps.push_back({cluster_id[bi], cluster_id[bj], best,
                         cluster_size[bi] + cluster_size[bj]});

    // Merge bj into bi via Lance-Williams updates.
    const auto lw = coefficients(linkage, size_a, size_b);
    for (std::size_t c = 0; c < n; ++c) {
      if (!alive[c] || c == bi || c == bj) continue;
      const double dac = d[bi * n + c];
      const double dbc = d[bj * n + c];
      const double merged = lw.alpha_a * dac + lw.alpha_b * dbc +
                            lw.gamma * std::abs(dac - dbc);
      d[bi * n + c] = d[c * n + bi] = merged;
    }
    alive[bj] = false;
    cluster_id[bi] = next_id++;
    cluster_size[bi] += cluster_size[bj];
  }
  return out;
}

namespace {

/// Unions leaves under each merge step satisfying `take`.
std::vector<std::uint32_t> cut_impl(
    const Dendrogram& dendrogram,
    const std::function<bool(std::size_t step_index)>& take) {
  const std::size_t n = dendrogram.leaves;
  UnionFind uf(n);
  // Representative leaf per dendrogram id (leaf ids map to themselves;
  // internal ids record one member leaf).
  std::vector<std::uint32_t> member(n + dendrogram.steps.size());
  for (std::uint32_t i = 0; i < n; ++i) member[i] = i;
  for (std::size_t s = 0; s < dendrogram.steps.size(); ++s) {
    const MergeStep& step = dendrogram.steps[s];
    member[n + s] = member[step.a];
    if (take(s)) uf.unite(member[step.a], member[step.b]);
  }
  std::vector<std::uint32_t> labels(n);
  for (std::uint32_t v = 0; v < n; ++v) labels[v] = uf.find(v);
  canonicalize_labels(labels);
  return labels;
}

}  // namespace

std::vector<std::uint32_t> cut_into_clusters(const Dendrogram& dendrogram,
                                             std::size_t k) {
  k = std::clamp<std::size_t>(k, 1, std::max<std::size_t>(1,
                                                          dendrogram.leaves));
  // Taking the first (leaves - k) merges (steps are distance-ordered for
  // monotone linkages) leaves exactly k clusters.
  const std::size_t takes = dendrogram.leaves - k;
  return cut_impl(dendrogram,
                  [takes](std::size_t s) { return s < takes; });
}

}  // namespace mdtask::analysis
