#include "mdtask/analysis/hausdorff.h"

#include <gtest/gtest.h>

#include "mdtask/analysis/rmsd.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

traj::Trajectory make_traj(std::uint64_t seed, std::size_t frames = 12,
                           std::size_t atoms = 8) {
  traj::ProteinTrajectoryParams p;
  p.atoms = atoms;
  p.frames = frames;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

TEST(HausdorffTest, SelfDistanceIsZero) {
  const auto t = make_traj(1);
  EXPECT_DOUBLE_EQ(hausdorff_naive(t, t), 0.0);
  EXPECT_DOUBLE_EQ(hausdorff_early_break(t, t), 0.0);
}

TEST(HausdorffTest, Symmetric) {
  // Bit for bit, not within ULPs: the PSA runners compute each pair once
  // and mirror it.
  const std::size_t frame_counts[][2] = {{12, 12}, {7, 19}, {1, 5},
                                         {16, 17}, {33, 4}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const auto& frames : frame_counts) {
      const auto a = make_traj(seed, frames[0]);
      const auto b = make_traj(seed + 100, frames[1]);
      EXPECT_EQ(hausdorff_naive(a, b), hausdorff_naive(b, a))
          << "seed " << seed << " frames " << frames[0] << "x" << frames[1];
      EXPECT_EQ(hausdorff_early_break(a, b), hausdorff_early_break(b, a))
          << "seed " << seed << " frames " << frames[0] << "x" << frames[1];
      for (const auto policy : kernels::kAllPolicies) {
        EXPECT_EQ(hausdorff_naive(a, b, policy), hausdorff_naive(b, a, policy))
            << kernels::to_string(policy) << " seed " << seed;
        EXPECT_EQ(hausdorff_early_break(a, b, policy),
                  hausdorff_early_break(b, a, policy))
            << kernels::to_string(policy) << " seed " << seed;
      }
    }
  }
}

TEST(HausdorffTest, NonNegativeAndPositiveForDistinct) {
  const auto a = make_traj(1), b = make_traj(2);
  EXPECT_GT(hausdorff_naive(a, b), 0.0);
}

TEST(HausdorffTest, EarlyBreakEqualsNaive) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto a = make_traj(s), b = make_traj(s + 100);
    EXPECT_DOUBLE_EQ(hausdorff_naive(a, b), hausdorff_early_break(a, b))
        << "seed " << s;
  }
}

TEST(HausdorffTest, EarlyBreakDoesFewerEvals) {
  const auto a = make_traj(3, 40), b = make_traj(4, 40);
  const auto naive =
      hausdorff_naive_profiled(a, b, kernels::default_policy());
  const auto early =
      hausdorff_early_break_profiled(a, b, kernels::default_policy());
  EXPECT_DOUBLE_EQ(naive.distance, early.distance);
  EXPECT_EQ(naive.metric_evals, 2u * 40u * 40u);
  EXPECT_LT(early.metric_evals, naive.metric_evals);
}

TEST(HausdorffTest, TriangleInequalityOverEnsemble) {
  // Hausdorff distance with a metric frame distance is itself a metric on
  // compact sets; spot check the triangle inequality.
  const auto a = make_traj(10), b = make_traj(11), c = make_traj(12);
  const double ab = hausdorff_naive(a, b);
  const double bc = hausdorff_naive(b, c);
  const double ac = hausdorff_naive(a, c);
  EXPECT_LE(ac, ab + bc + 1e-9);
}

TEST(HausdorffTest, SubsetYieldsSmallerOrEqualDirectedDistance) {
  // Adding frames to T2 can only shrink min distances from T1 frames, so
  // Hausdorff(T1, T2-extended-by-T1-frames) <= Hausdorff(T1, T2).
  const auto a = make_traj(20, 10), b = make_traj(21, 10);
  traj::Trajectory extended(b.frames() + a.frames(), b.atoms());
  for (std::size_t f = 0; f < b.frames(); ++f) {
    auto dst = extended.frame(f);
    auto src = b.frame(f);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  for (std::size_t f = 0; f < a.frames(); ++f) {
    auto dst = extended.frame(b.frames() + f);
    auto src = a.frame(f);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  // Every a-frame is now in extended, so directed distance a->ext is 0 and
  // the result only reflects ext->a; still <= original by the same logic.
  EXPECT_LE(hausdorff_naive(a, extended), hausdorff_naive(a, b) + 1e-12);
}

TEST(HausdorffTest, CustomMetricIsHonoured) {
  const auto a = make_traj(30), b = make_traj(31);
  const FrameMetric twice = [](std::span<const traj::Vec3> x,
                               std::span<const traj::Vec3> y) {
    return 2.0 * frame_rmsd(x, y);
  };
  EXPECT_NEAR(hausdorff_naive(a, b, twice), 2.0 * hausdorff_naive(a, b),
              1e-9);
}

TEST(HausdorffTest, SingleFrameTrajectoriesReduceToFrameMetric) {
  const auto a = make_traj(40, 1), b = make_traj(41, 1);
  EXPECT_DOUBLE_EQ(hausdorff_naive(a, b),
                   frame_rmsd(a.frame(0), b.frame(0)));
}

}  // namespace
}  // namespace mdtask::analysis
