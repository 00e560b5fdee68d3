#include "mdtask/analysis/balltree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mdtask/common/rng.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

using traj::Vec3;

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Vec3> out(n);
  for (auto& p : out) {
    p = {static_cast<float>(rng.uniform(0, 20)),
         static_cast<float>(rng.uniform(0, 20)),
         static_cast<float>(rng.uniform(0, 20))};
  }
  return out;
}

std::vector<std::uint32_t> brute_force(const std::vector<Vec3>& pts, Vec3 q,
                                       double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (traj::dist2(pts[i], q) <= r * r) out.push_back(i);
  }
  return out;
}

// The points within `r` of `q`, collected into a fresh vector.
std::vector<std::uint32_t> query(const BallTree& tree, Vec3 q, double r) {
  std::vector<std::uint32_t> out;
  tree.query_radius(q, r, out);
  return out;
}

class BallTreeParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BallTreeParamTest, MatchesBruteForceAcrossLeafSizes) {
  const auto pts = random_points(500, 42);
  const BallTree tree(pts, GetParam());
  Xoshiro256StarStar rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec3 q{static_cast<float>(rng.uniform(-2, 22)),
                 static_cast<float>(rng.uniform(-2, 22)),
                 static_cast<float>(rng.uniform(-2, 22))};
    const double r = rng.uniform(0.1, 6.0);
    auto got = query(tree, q, r);
    auto want = brute_force(pts, q, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "leaf=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, BallTreeParamTest,
                         ::testing::Values(1, 2, 8, 32, 128, 1000));

TEST(BallTreeTest, EmptyTree) {
  const std::vector<Vec3> none;
  const BallTree tree(none);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(query(tree, {0, 0, 0}, 100.0).empty());
}

TEST(BallTreeTest, SinglePoint) {
  const std::vector<Vec3> one = {{1, 1, 1}};
  const BallTree tree(one);
  EXPECT_EQ(query(tree, {1, 1, 1}, 0.0).size(), 1u);
  EXPECT_TRUE(query(tree, {5, 5, 5}, 1.0).empty());
}

TEST(BallTreeTest, DuplicatePointsAllReported) {
  const std::vector<Vec3> pts(10, Vec3{2, 2, 2});
  const BallTree tree(pts, 2);
  EXPECT_EQ(query(tree, {2, 2, 2}, 0.5).size(), 10u);
}

TEST(BallTreeTest, RadiusIsInclusive) {
  const std::vector<Vec3> pts = {{0, 0, 0}, {3, 0, 0}};
  const BallTree tree(pts);
  EXPECT_EQ(query(tree, {0, 0, 0}, 3.0).size(), 2u);
}

TEST(BallTreeTest, ZeroRadiusFindsExactMatchesOnly) {
  const auto pts = random_points(100, 9);
  const BallTree tree(pts, 4);
  const auto hits = query(tree, pts[17], 0.0);
  ASSERT_GE(hits.size(), 1u);
  for (auto h : hits) EXPECT_EQ(pts[h], pts[17]);
}

TEST(BallTreeTest, NodeCountGrowsWithSmallerLeaves) {
  const auto pts = random_points(512, 11);
  const BallTree coarse(pts, 256);
  const BallTree fine(pts, 4);
  EXPECT_GT(fine.node_count(), coarse.node_count());
}

TEST(BallTreeTest, BilayerNeighboursMatchBruteForce) {
  traj::BilayerParams p;
  p.atoms = 800;
  const auto b = traj::make_bilayer(p);
  const BallTree tree(b.positions, 16);
  const double cutoff = traj::default_cutoff(p);
  for (std::uint32_t i = 0; i < 20; ++i) {
    auto got = query(tree, b.positions[i], cutoff);
    auto want = brute_force(b.positions, b.positions[i], cutoff);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace mdtask::analysis
