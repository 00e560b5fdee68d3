// Equivalence of the analysis-layer entry points wired onto the batch
// kernels: the Hausdorff overloads and PSA under both tiers; the Leaflet
// edge kernels and the BallTree leaf scan, which have one production
// path each, against a scalar reference scan; and the cpptraj 2D-RMSD
// tiled kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mdtask/analysis/balltree.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/analysis/rmsd.h"
#include "mdtask/cpptraj/rmsd2d.h"
#include "mdtask/traj/catalog.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

constexpr double kVecRelTol = 1e-4;

traj::Trajectory make_traj(std::uint64_t seed, std::size_t frames = 18,
                           std::size_t atoms = 24) {
  traj::ProteinTrajectoryParams p;
  p.atoms = atoms;
  p.frames = frames;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

traj::Ensemble make_ensemble(std::size_t n, std::uint64_t seed = 1) {
  traj::Ensemble e;
  for (std::size_t i = 0; i < n; ++i) {
    e.push_back(make_traj(seed + i, 10 + (i % 3), 16));
  }
  return e;
}

TEST(HausdorffPolicyTest, ScalarPolicyMatchesFrameMetricPath) {
  // The devirtualized kScalar fast path must reproduce the pluggable
  // std::function path bit-for-bit.
  const auto a = make_traj(3), b = make_traj(4);
  const FrameMetric metric = [](std::span<const traj::Vec3> x,
                                std::span<const traj::Vec3> y) {
    return frame_rmsd(x, y);
  };
  EXPECT_EQ(hausdorff_naive(a, b, metric),
            hausdorff_naive(a, b, kernels::KernelPolicy::kScalar));
  EXPECT_EQ(hausdorff_early_break(a, b, metric),
            hausdorff_early_break(a, b, kernels::KernelPolicy::kScalar));
}

TEST(HausdorffPolicyTest, VectorizedWithinTolerance) {
  const auto a = make_traj(5), b = make_traj(6);
  const double ref = hausdorff_naive(a, b, kernels::KernelPolicy::kScalar);
  const double vec =
      hausdorff_naive(a, b, kernels::KernelPolicy::kVectorized);
  EXPECT_NEAR(vec, ref, kVecRelTol * std::max(ref, 1.0));
}

TEST(PsaPolicyTest, VectorizedMatrixWithinTolerance) {
  const auto ensemble = make_ensemble(5);
  const auto scalar = psa_reference(ensemble, HausdorffKernel::kNaive,
                                    kernels::KernelPolicy::kScalar);
  const auto vec = psa_reference(ensemble, HausdorffKernel::kNaive,
                                 kernels::KernelPolicy::kVectorized);
  EXPECT_LE(vec.max_abs_diff(scalar), 1e-4);
}

struct LfFixture {
  traj::Bilayer bilayer;
  double cutoff;

  explicit LfFixture(std::size_t atoms, std::uint64_t seed = 7) {
    traj::BilayerParams p;
    p.atoms = atoms;
    p.seed = seed;
    bilayer = traj::make_bilayer(p);
    cutoff = traj::default_cutoff(p);
  }
};

std::vector<std::uint32_t> iota_ids(std::uint32_t begin, std::uint32_t end) {
  std::vector<std::uint32_t> ids(end - begin);
  std::iota(ids.begin(), ids.end(), begin);
  return ids;
}

/// Scalar reference scan: every cross pair with a < b and
/// dist2 <= cutoff^2 by the exact double predicate, row-major.
std::vector<Edge> reference_edges(std::span<const traj::Vec3> xs,
                                  std::span<const traj::Vec3> ys,
                                  std::span<const std::uint32_t> x_ids,
                                  std::span<const std::uint32_t> y_ids,
                                  double cutoff) {
  const double c2 = cutoff * cutoff;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < ys.size(); ++j) {
      if (x_ids[i] < y_ids[j] && traj::dist2(xs[i], ys[j]) <= c2) {
        edges.push_back({x_ids[i], y_ids[j]});
      }
    }
  }
  return edges;
}

std::vector<Edge> reference_block_edges(std::span<const traj::Vec3> atoms,
                                        const BlockPair& block,
                                        double cutoff) {
  return reference_edges(
      atoms.subspan(block.rows.begin, block.rows.size()),
      atoms.subspan(block.cols.begin, block.cols.size()),
      iota_ids(block.rows.begin, block.rows.end),
      iota_ids(block.cols.begin, block.cols.end), cutoff);
}

TEST(LeafletPolicyTest, EdgesWithinCutoffIdenticalAcrossPolicies) {
  const LfFixture fx(300);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  const auto ids = iota_ids(0, static_cast<std::uint32_t>(atoms.size()));
  const auto xs = atoms.subspan(0, 120);
  const auto ys = atoms.subspan(120);
  const auto x_ids = std::span<const std::uint32_t>(ids).subspan(0, 120);
  const auto y_ids = std::span<const std::uint32_t>(ids).subspan(120);
  const auto ref = reference_edges(xs, ys, x_ids, y_ids, fx.cutoff);
  EXPECT_EQ(edges_within_cutoff(xs, ys, x_ids, y_ids, fx.cutoff), ref);
  for (const auto policy : kernels::kAllPolicies) {
    const auto got =
        edges_within_cutoff(xs, ys, x_ids, y_ids, fx.cutoff, policy);
    EXPECT_EQ(got, ref) << kernels::to_string(policy);
  }
  EXPECT_FALSE(ref.empty());
}

TEST(LeafletPolicyTest, MapKernelsIdenticalAcrossPolicies) {
  // The map kernels have one production path each; every one must emit
  // the scalar reference scan's edges (the tree in its own row order).
  const LfFixture fx(240);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  const auto all = static_cast<std::uint32_t>(atoms.size());
  for (const auto& chunk : make_1d_chunks(atoms.size(), 4)) {
    EXPECT_EQ(lf_edges_1d(atoms, chunk, fx.cutoff),
              reference_block_edges(atoms, {chunk, {0, all}}, fx.cutoff));
  }
  for (const auto& block : make_2d_blocks(atoms.size(), 10)) {
    const auto ref = reference_block_edges(atoms, block, fx.cutoff);
    EXPECT_EQ(lf_edges_2d(atoms, block, fx.cutoff), ref);
    auto tree = lf_edges_tree(atoms, block, fx.cutoff);
    std::sort(tree.begin(), tree.end());
    auto sorted_ref = ref;
    std::sort(sorted_ref.begin(), sorted_ref.end());
    EXPECT_EQ(tree, sorted_ref);
  }
}

TEST(BallTreePolicyTest, QueriesIdenticalAcrossPolicies) {
  // The leaf scan has one production path: tree queries must return the
  // points a brute-force scalar scan finds.
  const LfFixture fx(500);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  const BallTree tree(atoms, 32);
  const double c2 = fx.cutoff * fx.cutoff;
  for (std::size_t q = 0; q < atoms.size(); q += 37) {
    std::vector<std::uint32_t> expect, got;
    for (std::uint32_t i = 0; i < atoms.size(); ++i) {
      if (traj::dist2(atoms[i], atoms[q]) <= c2) expect.push_back(i);
    }
    tree.query_radius(atoms[q], fx.cutoff, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "q " << q;
    EXPECT_FALSE(expect.empty());
  }
}

TEST(Rmsd2dKernelTest, TiledAgreesWithReference) {
  const auto a = make_traj(30, 20, 24), b = make_traj(31, 22, 24);
  const auto ref = cpptraj::rmsd2d_block_reference(a, b);
  const auto tiled = cpptraj::rmsd2d_block_tiled(a, b);
  ASSERT_EQ(ref.size(), tiled.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(tiled[k], ref[k], kVecRelTol * std::max(ref[k], 1.0));
  }
}

}  // namespace
}  // namespace mdtask::analysis
