// Property-based equivalence of the two KernelPolicy tiers.
//
// Contract under test (mdtask/kernels/policy.h):
//  * kVectorized accumulates in single precision: values agree with
//    kScalar to ~1e-6 relative (asserted at 1e-4 with headroom).
//  * The cutoff kernel's one production path emits the pair list of the
//    scalar reference scan, whatever policy it is passed.
//  * The tiled early-break Hausdorff never evaluates more frame pairs
//    than the naive scan.
#include "mdtask/kernels/batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mdtask/common/rng.h"
#include "mdtask/traj/generators.h"

namespace mdtask::kernels {
namespace {

/// Relative tolerance for the single-precision kVectorized tier; the
/// periodic double drain bounds the true error near 1e-6.
constexpr double kVecRelTol = 1e-4;

FramePack make_pack(std::uint64_t seed, std::size_t frames,
                    std::size_t atoms) {
  traj::ProteinTrajectoryParams p;
  p.atoms = atoms;
  p.frames = frames;
  p.seed = seed;
  return pack_trajectory(traj::make_protein_trajectory(p));
}

std::vector<traj::Vec3> make_cloud(std::uint64_t seed, std::size_t n,
                                   double side) {
  Xoshiro256StarStar rng(seed);
  std::vector<traj::Vec3> pts(n);
  for (auto& p : pts) {
    p = {static_cast<float>(rng.uniform(0.0, side)),
         static_cast<float>(rng.uniform(0.0, side)),
         static_cast<float>(rng.uniform(0.0, side))};
  }
  return pts;
}

/// Sizes straddling the tile/padding boundaries the kernels block on.
const std::size_t kFrameSizes[] = {1, 2, kFrameTile - 1, kFrameTile,
                                   kFrameTile + 1, 37};
const std::size_t kAtomSizes[] = {1, 3, 15, 16, 17, 61};

TEST(BatchEquivalenceTest, VectorizedSumsqWithinRelativeTolerance) {
  std::uint64_t seed = 50;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : kAtomSizes) {
      const auto a = make_pack(seed, frames, atoms);
      const auto b = make_pack(seed + 1000, frames, atoms);
      ++seed;
      for (std::size_t i = 0; i < frames; ++i) {
        for (std::size_t j = 0; j < frames; ++j) {
          const double ref =
              frame_sumsq_packed(a, i, b, j, KernelPolicy::kScalar);
          const double vec =
              frame_sumsq_packed(a, i, b, j, KernelPolicy::kVectorized);
          EXPECT_NEAR(vec, ref, kVecRelTol * std::max(ref, 1.0))
              << "frames " << frames << " atoms " << atoms;
        }
      }
    }
  }
}

TEST(BatchEquivalenceTest, SumsqSelfPairIsZeroUnderEveryPolicy) {
  const auto a = make_pack(7, 4, 33);
  for (const auto policy : kAllPolicies) {
    EXPECT_EQ(frame_sumsq_packed(a, 2, a, 2, policy), 0.0);
  }
}

TEST(BatchEquivalenceTest, OneToManyMatchesPerPairCalls) {
  const auto a = make_pack(3, 9, 29);
  const auto b = make_pack(4, 21, 29);
  for (const auto policy : kAllPolicies) {
    std::vector<double> sums(b.frames());
    const std::size_t j0 = 2, j1 = 19;  // deliberately off-tile bounds
    const double min_sumsq = sumsq_one_to_many(
        a, 5, b, j0, j1, std::span(sums).subspan(0, j1 - j0), policy);
    double expect_min = std::numeric_limits<double>::infinity();
    for (std::size_t j = j0; j < j1; ++j) {
      const double s = frame_sumsq_packed(a, 5, b, j, policy);
      EXPECT_DOUBLE_EQ(sums[j - j0], s) << to_string(policy) << " j " << j;
      expect_min = std::min(expect_min, s);
    }
    EXPECT_DOUBLE_EQ(min_sumsq, expect_min) << to_string(policy);
  }
}

TEST(BatchEquivalenceTest, OneToManyEmptyRangeReturnsInfinity) {
  const auto a = make_pack(5, 2, 8);
  for (const auto policy : kAllPolicies) {
    const double m = sumsq_one_to_many(a, 0, a, 1, 1, {}, policy);
    EXPECT_TRUE(std::isinf(m)) << to_string(policy);
  }
}

TEST(BatchEquivalenceTest, HausdorffVectorizedWithinTolerance) {
  std::uint64_t seed = 200;
  for (const std::size_t frames : kFrameSizes) {
    const auto a = make_pack(seed, frames, 24);
    const auto b = make_pack(seed + 1, frames + 2, 24);
    ++seed;
    for (const bool early : {false, true}) {
      const double ref = hausdorff_packed(a, b, early, KernelPolicy::kScalar);
      const double vec =
          hausdorff_packed(a, b, early, KernelPolicy::kVectorized);
      EXPECT_NEAR(vec, ref, kVecRelTol * std::max(ref, 1.0))
          << "frames " << frames << " early " << early;
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffEarlyBreakValueEqualsFullScan) {
  for (const auto policy : kAllPolicies) {
    for (std::uint64_t seed = 300; seed < 306; ++seed) {
      const auto a = make_pack(seed, 33, 16);
      const auto b = make_pack(seed + 40, 31, 16);
      EXPECT_DOUBLE_EQ(hausdorff_packed(a, b, false, policy),
                       hausdorff_packed(a, b, true, policy))
          << to_string(policy) << " seed " << seed;
    }
  }
}

TEST(BatchEquivalenceTest, EarlyBreakNeverEvaluatesMoreThanNaive) {
  for (const auto policy : kAllPolicies) {
    for (std::uint64_t seed = 400; seed < 406; ++seed) {
      const auto a = make_pack(seed, 40, 12);
      const auto b = make_pack(seed + 7, 35, 12);
      std::size_t naive_evals = 0, early_evals = 0;
      hausdorff_packed(a, b, false, policy, &naive_evals);
      hausdorff_packed(a, b, true, policy, &early_evals);
      EXPECT_EQ(naive_evals, 2u * 40u * 35u) << to_string(policy);
      EXPECT_LE(early_evals, naive_evals) << to_string(policy);
    }
  }
}

TEST(BatchEquivalenceTest, DirectedEarlyBreakEvalCountsAreTileGranular) {
  const auto a = make_pack(42, 37, 20);
  const auto b = make_pack(43, 41, 20);
  std::size_t evals = 0;
  hausdorff_directed_packed(a, b, true, KernelPolicy::kVectorized, &evals);
  EXPECT_LE(evals, 37u * 41u);
  EXPECT_GT(evals, 0u);
}

TEST(BatchEquivalenceTest, Rmsd2dPoliciesAgree) {
  std::uint64_t seed = 500;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : {15, 16, 17}) {
      const auto a = make_pack(seed, frames, atoms);
      const auto b = make_pack(seed + 9, frames + 1, atoms);
      ++seed;
      const std::size_t n = a.frames() * b.frames();
      std::vector<double> ref(n), vec(n);
      rmsd2d_packed(a, b, KernelPolicy::kScalar, ref);
      rmsd2d_packed(a, b, KernelPolicy::kVectorized, vec);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(vec[k], ref[k], kVecRelTol * std::max(ref[k], 1.0))
            << "frames " << frames;
      }
    }
  }
}

TEST(BatchEquivalenceTest, Rmsd2dParallelMatchesSerial) {
  const auto a = make_pack(77, 3 * kFrameTile + 5, 21);
  const auto b = make_pack(78, 2 * kFrameTile + 3, 21);
  ThreadPool pool(4);
  for (const auto policy : kAllPolicies) {
    const std::size_t n = a.frames() * b.frames();
    std::vector<double> serial(n), parallel(n);
    rmsd2d_packed(a, b, policy, serial);
    rmsd2d_packed_parallel(a, b, policy, pool, nullptr, parallel);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_DOUBLE_EQ(parallel[k], serial[k]) << to_string(policy);
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffParallelMatchesSerialExactly) {
  // The grouped two-task split must not change the value OR the eval
  // count: each directed half is computed by the same serial kernel,
  // just on a co-scheduled worker pair.
  ThreadPool pool(4, topo::CpuTopology::synthetic(4, 1, 2), false);
  std::uint64_t seed = 1200;
  for (const std::size_t frames : {kFrameTile - 1, kFrameTile + 3}) {
    const auto a = make_pack(seed, frames, 19);
    const auto b = make_pack(seed + 5, frames + 2, 19);
    ++seed;
    for (const auto policy : kAllPolicies) {
      for (const bool early : {false, true}) {
        std::size_t serial_evals = 0, parallel_evals = 0;
        const double serial =
            hausdorff_packed(a, b, early, policy, &serial_evals);
        const double parallel = hausdorff_packed_parallel(
            a, b, early, policy, pool, /*pair_id=*/seed, &parallel_evals);
        EXPECT_DOUBLE_EQ(parallel, serial) << to_string(policy);
        EXPECT_EQ(parallel_evals, serial_evals) << to_string(policy);
      }
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffParallelSingleWorkerFallsBackSerial) {
  ThreadPool pool(1, topo::CpuTopology::synthetic(1), false);
  const auto a = make_pack(31, kFrameTile, 12);
  const auto b = make_pack(32, kFrameTile, 12);
  EXPECT_DOUBLE_EQ(
      hausdorff_packed_parallel(a, b, true, KernelPolicy::kVectorized, pool,
                                0),
      hausdorff_packed(a, b, true, KernelPolicy::kVectorized));
}

TEST(BatchEquivalenceTest, CutoffPairListsIdenticalAcrossPolicies) {
  // Cloud sizes straddle kCutoffTile and the group width; the cutoff is
  // picked so a few percent of pairs hit.
  for (const std::size_t n : {std::size_t{1}, std::size_t{15},
                              std::size_t{255}, std::size_t{256},
                              std::size_t{257}, std::size_t{700}}) {
    const auto rows_cloud = make_cloud(600 + n, n, 20.0);
    const auto cols_cloud = make_cloud(900 + n, n + 3, 20.0);
    const auto rows = pack_points(rows_cloud);
    const auto cols = pack_points(cols_cloud);
    std::vector<IndexPair> ref;
    cutoff_pairs_reference(rows, cols, 3.0, ref);
    for (const auto policy : kAllPolicies) {
      std::vector<IndexPair> got;
      cutoff_pairs_packed(rows, cols, 3.0, policy, got);
      EXPECT_EQ(got, ref) << to_string(policy) << " n " << n;
    }
    EXPECT_FALSE(ref.empty() && n > 200) << "degenerate fixture, n " << n;
  }
}

TEST(BatchEquivalenceTest, CutoffHandlesEmptyOperands) {
  const auto pts = pack_points(make_cloud(1, 10, 5.0));
  const FramePack empty;
  std::vector<IndexPair> out;
  for (const auto policy : kAllPolicies) {
    out.clear();
    cutoff_pairs_packed(empty, pts, 3.0, policy, out);
    EXPECT_TRUE(out.empty());
    cutoff_pairs_packed(pts, empty, 3.0, policy, out);
    EXPECT_TRUE(out.empty());
  }
  cutoff_pairs_reference(empty, pts, 3.0, out);
  cutoff_pairs_reference(pts, empty, 3.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchEquivalenceTest, CutoffBoundaryPairIsInclusiveUnderEveryPolicy) {
  // Distance exactly equal to the cutoff must be a hit (<=, not <).
  const std::vector<traj::Vec3> a = {{0.0f, 0.0f, 0.0f}};
  const std::vector<traj::Vec3> b = {{3.0f, 0.0f, 0.0f},
                                     {3.0000005f, 0.0f, 0.0f}};
  const auto rows = pack_points(a);
  const auto cols = pack_points(b);
  std::vector<IndexPair> ref;
  cutoff_pairs_reference(rows, cols, 3.0, ref);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0], (IndexPair{0, 0}));
  for (const auto policy : kAllPolicies) {
    std::vector<IndexPair> out;
    cutoff_pairs_packed(rows, cols, 3.0, policy, out);
    EXPECT_EQ(out, ref) << to_string(policy);
  }
}

TEST(BatchEquivalenceTest, CutoffDenseClusterAllPairsHit) {
  // Every point inside a tiny ball: the vectorized group pre-filter must
  // not drop any candidate when every group is full of hits.
  const auto cloud = make_cloud(5, 70, 0.5);
  const auto pack = pack_points(cloud);
  std::vector<IndexPair> ref;
  cutoff_pairs_reference(pack, pack, 3.0, ref);
  EXPECT_EQ(ref.size(), 70u * 70u);
  for (const auto policy : kAllPolicies) {
    std::vector<IndexPair> out;
    cutoff_pairs_packed(pack, pack, 3.0, policy, out);
    EXPECT_EQ(out, ref) << to_string(policy);
  }
}

}  // namespace
}  // namespace mdtask::kernels
