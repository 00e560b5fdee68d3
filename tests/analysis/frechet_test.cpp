#include "mdtask/analysis/frechet.h"

#include <gtest/gtest.h>

#include "mdtask/analysis/hausdorff.h"
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

/// A single-atom trajectory walking through the given x positions.
traj::Trajectory line_traj(const std::vector<float>& xs) {
  traj::Trajectory t(xs.size(), 1);
  for (std::size_t f = 0; f < xs.size(); ++f) t.frame(f)[0] = {xs[f], 0, 0};
  return t;
}

TEST(FrechetTest, SelfDistanceIsZero) {
  const auto t = make_traj(1);
  EXPECT_DOUBLE_EQ(frechet_distance(t, t), 0.0);
}

TEST(FrechetTest, Symmetric) {
  // Bit for bit, not within ULPs: the PSA runners compute each pair once
  // and mirror it.
  const std::size_t frame_counts[][2] = {{12, 12}, {7, 19}, {1, 5},
                                         {16, 17}, {33, 4}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const auto& frames : frame_counts) {
      const auto a = make_traj(seed, frames[0]);
      const auto b = make_traj(seed + 100, frames[1]);
      EXPECT_EQ(frechet_distance(a, b), frechet_distance(b, a))
          << "seed " << seed << " frames " << frames[0] << "x" << frames[1];
    }
  }
}

TEST(FrechetTest, AtLeastHausdorff) {
  // The Fréchet coupling is a constrained matching, so its distance can
  // never be below the (unconstrained) Hausdorff distance.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto a = make_traj(seed), b = make_traj(seed + 50);
    EXPECT_GE(frechet_distance(a, b), hausdorff_naive(a, b) - 1e-12)
        << "seed " << seed;
  }
}

TEST(FrechetTest, OrderingMattersReversedPath) {
  // Same point sets walked in opposite directions: Hausdorff is 0, but
  // the Fréchet coupling must start at (a_first, b_first) = (0, 4), so
  // the distance is the full path length.
  const auto a = line_traj({0, 1, 2, 3, 4});
  const auto b = line_traj({4, 3, 2, 1, 0});
  EXPECT_DOUBLE_EQ(hausdorff_naive(a, b), 0.0);
  EXPECT_DOUBLE_EQ(frechet_distance(a, b), 4.0);
}

TEST(FrechetTest, KnownBacktrackCase) {
  // b overshoots to 4 and returns: the leash cannot be shorter than 2
  // (when b sits at 4, a is at best at 2 to still reach b's return).
  const auto a = line_traj({0, 1, 2, 3, 4});
  const auto b = line_traj({0, 4, 0, 4});
  EXPECT_DOUBLE_EQ(frechet_distance(a, b), 2.0);
}

TEST(FrechetTest, SingleFrameReducesToFrameMetric) {
  const auto a = make_traj(10, 1), b = make_traj(11, 1);
  EXPECT_DOUBLE_EQ(frechet_distance(a, b),
                   frame_rmsd(a.frame(0), b.frame(0)));
}

TEST(FrechetTest, TriangleInequality) {
  const auto a = make_traj(20), b = make_traj(21), c = make_traj(22);
  EXPECT_LE(frechet_distance(a, c),
            frechet_distance(a, b) + frechet_distance(b, c) + 1e-9);
}

TEST(FrechetTest, CustomMetricHonoured) {
  const auto a = make_traj(30), b = make_traj(31);
  const FrameMetric doubled = [](std::span<const traj::Vec3> x,
                                 std::span<const traj::Vec3> y) {
    return 2.0 * frame_rmsd(x, y);
  };
  EXPECT_NEAR(frechet_distance(a, b, doubled),
              2.0 * frechet_distance(a, b), 1e-9);
}

TEST(FrechetTest, UnequalFrameCounts) {
  const auto a = make_traj(40, 5), b = make_traj(41, 13);
  EXPECT_GT(frechet_distance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(frechet_distance(a, b), frechet_distance(b, a));
}

TEST(FrechetTest, EmptyTrajectoryIsZeroNotACrash) {
  const traj::Trajectory empty;
  const auto t = make_traj(1);
  EXPECT_DOUBLE_EQ(frechet_distance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(frechet_distance(empty, t), 0.0);
}

}  // namespace
}  // namespace mdtask::analysis
