// Hierarchical agglomerative clustering over a PSA distance matrix.
//
// PSA's end goal (Sec. 2.1.1) is to "cluster the trajectories based on
// their distance matrix". This module implements average/single/
// complete-linkage agglomerative clustering (the method PSA's reference
// implementation uses via scipy.cluster.hierarchy) over the
// DistanceMatrix the engines produce, plus flat-cluster extraction.
#pragma once

#include <cstdint>
#include <vector>

#include "mdtask/analysis/psa.h"

namespace mdtask::analysis {

enum class Linkage { kSingle, kComplete, kAverage };

/// One agglomeration step, scipy-style: merges clusters `a` and `b`
/// (ids < n are leaves; id n+k is the cluster created by step k) at
/// the given inter-cluster distance into a cluster of `size` leaves.
struct MergeStep {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double distance = 0.0;
  std::uint32_t size = 0;
};

/// The full dendrogram: n-1 merge steps in non-decreasing distance
/// order (Lance-Williams update guarantees monotonicity for these
/// linkages).
struct Dendrogram {
  std::size_t leaves = 0;
  std::vector<MergeStep> steps;
};

/// Clusters the n x n distance matrix. Requires a symmetric matrix with
/// zero diagonal (what PSA produces); returns kInvalidArgument for an
/// empty matrix.
Result<Dendrogram> hierarchical_cluster(const DistanceMatrix& distances,
                                        Linkage linkage);

/// Cuts the dendrogram into exactly `k` clusters (1 <= k <= leaves).
/// Labels are canonical (smallest leaf index per cluster).
std::vector<std::uint32_t> cut_into_clusters(const Dendrogram& dendrogram,
                                             std::size_t k);

}  // namespace mdtask::analysis
