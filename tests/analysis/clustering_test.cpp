#include "mdtask/analysis/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mdtask/common/rng.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

/// Distance matrix with two tight groups {0,1,2} and {3,4} far apart.
DistanceMatrix two_groups() {
  DistanceMatrix d(5);
  auto set = [&d](std::size_t i, std::size_t j, double v) {
    d.set(i, j, v);
    d.set(j, i, v);
  };
  set(0, 1, 1.0);
  set(0, 2, 1.2);
  set(1, 2, 1.1);
  set(3, 4, 0.9);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 3; j < 5; ++j) set(i, j, 10.0 + static_cast<double>(i + j) * 0.1);
  }
  return d;
}

TEST(ClusteringTest, EmptyMatrixRejected) {
  EXPECT_FALSE(hierarchical_cluster(DistanceMatrix(), Linkage::kAverage).ok());
}

TEST(ClusteringTest, SingleLeafHasNoSteps) {
  auto r = hierarchical_cluster(DistanceMatrix(1), Linkage::kAverage);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().leaves, 1u);
  EXPECT_TRUE(r.value().steps.empty());
}

class LinkageTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkageTest, ProducesNMinusOneMonotoneSteps) {
  auto r = hierarchical_cluster(two_groups(), GetParam());
  ASSERT_TRUE(r.ok());
  const auto& dendrogram = r.value();
  ASSERT_EQ(dendrogram.steps.size(), 4u);
  for (std::size_t s = 1; s < dendrogram.steps.size(); ++s) {
    EXPECT_GE(dendrogram.steps[s].distance,
              dendrogram.steps[s - 1].distance - 1e-12);
  }
  EXPECT_EQ(dendrogram.steps.back().size, 5u);
}

TEST_P(LinkageTest, RecoversTheTwoGroups) {
  auto r = hierarchical_cluster(two_groups(), GetParam());
  ASSERT_TRUE(r.ok());
  const auto labels = cut_into_clusters(r.value(), 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

INSTANTIATE_TEST_SUITE_P(Linkages, LinkageTest,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage));

TEST(ClusteringTest, CutIntoKExtremes) {
  auto r = hierarchical_cluster(two_groups(), Linkage::kComplete);
  ASSERT_TRUE(r.ok());
  const auto all = cut_into_clusters(r.value(), 5);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_EQ(all[v], v);
  const auto one = cut_into_clusters(r.value(), 1);
  for (auto l : one) EXPECT_EQ(l, 0u);
}

TEST(ClusteringTest, SingleLinkageEqualsMstConnectivity) {
  // Single linkage at threshold t clusters exactly like the graph of
  // pairwise distances <= t (a classic equivalence). At t = 1.15 that
  // graph has two components, so the two-cluster cut is the cut at t.
  const auto d = two_groups();
  auto r = hierarchical_cluster(d, Linkage::kSingle);
  ASSERT_TRUE(r.ok());
  const auto labels = cut_into_clusters(r.value(), 2);
  // Direct check: 0-1 (1.0) and 1-2 (1.1) <= t so {0,1,2} join; 0-2 is
  // 1.2 > t but transitivity holds through 1.
  EXPECT_EQ(labels[0], labels[2]);
  // 3-4 at 0.9 <= t.
  EXPECT_EQ(labels[3], labels[4]);
}

TEST(ClusteringTest, PsaEndToEnd) {
  // Two families: each group shares a base trajectory; members are the
  // base plus small per-member positional noise, so within-group PSA
  // distances are far below between-group ones.
  traj::ProteinTrajectoryParams p;
  p.atoms = 8;
  p.frames = 10;
  traj::Ensemble ensemble;
  Xoshiro256StarStar noise(99);
  for (std::size_t g = 0; g < 2; ++g) {
    p.seed = 1000 * (g + 1);
    const auto base = traj::make_protein_trajectory(p);
    for (std::size_t i = 0; i < 4; ++i) {
      traj::Trajectory member = base;
      for (auto& pos : member.data()) {
        pos.x += static_cast<float>(noise.normal(0.0, 0.1));
        pos.y += static_cast<float>(noise.normal(0.0, 0.1));
        pos.z += static_cast<float>(noise.normal(0.0, 0.1));
      }
      ensemble.push_back(std::move(member));
    }
  }
  const auto matrix = psa_reference(ensemble);
  auto r = hierarchical_cluster(matrix, Linkage::kAverage);
  ASSERT_TRUE(r.ok());
  const auto labels = cut_into_clusters(r.value(), 2);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (std::size_t i = 5; i < 8; ++i) EXPECT_EQ(labels[i], labels[4]);
  EXPECT_NE(labels[0], labels[4]);
}

TEST(ClusteringTest, FrechetMatrixClustersLikeHausdorff) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 6;
  p.frames = 8;
  const auto ensemble = traj::make_protein_ensemble(5, p);
  const auto frechet = psa_reference_frechet(ensemble);
  ASSERT_EQ(frechet.size(), 5u);
  const auto hausdorff = psa_reference(ensemble);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frechet.at(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_GE(frechet.at(i, j), hausdorff.at(i, j) - 1e-12);
      EXPECT_DOUBLE_EQ(frechet.at(i, j), frechet.at(j, i));
    }
  }
}

}  // namespace
}  // namespace mdtask::analysis
