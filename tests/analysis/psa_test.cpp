#include "mdtask/analysis/psa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mdtask/analysis/hausdorff.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

traj::Ensemble small_ensemble(std::size_t count) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 6;
  p.frames = 8;
  return traj::make_protein_ensemble(count, p);
}

TEST(PsaBlocksTest, ExactDivision) {
  auto blocks = make_psa_blocks(8, 2);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks.value().size(), 10u);  // k (k + 1) / 2, k = 8/2
  std::size_t pairs = 0;
  for (const auto& b : blocks.value()) pairs += b.pair_count();
  EXPECT_EQ(pairs, 28u);  // 8 * 7 / 2
}

TEST(PsaBlocksTest, RaggedDivisionCoversAllPairs) {
  auto blocks = make_psa_blocks(7, 3);  // 3 chunk rows: 3,3,1
  ASSERT_TRUE(blocks.ok());
  std::size_t pairs = 0;
  for (const auto& b : blocks.value()) pairs += b.pair_count();
  EXPECT_EQ(pairs, 21u);  // 7 * 6 / 2
}

TEST(PsaBlocksTest, UpperTriangleCoveredExactlyOnce) {
  for (std::size_t n = 0; n <= 12; ++n) {
    for (std::size_t n1 = 1; n1 <= n + 1; ++n1) {
      auto blocks = make_psa_blocks(n, n1);
      ASSERT_TRUE(blocks.ok());
      const std::size_t k = (n + n1 - 1) / n1;
      EXPECT_EQ(blocks.value().size(), k * (k + 1) / 2)
          << "N=" << n << " n1=" << n1;
      std::vector<int> hits(n * n, 0);
      std::size_t previous = SIZE_MAX;
      for (const auto& b : blocks.value()) {
        EXPECT_LE(b.row_begin, b.col_begin)
            << "below the diagonal: N=" << n << " n1=" << n1;
        EXPECT_LE(b.pair_count(), previous) << "N=" << n << " n1=" << n1;
        previous = b.pair_count();
        std::size_t pairs = 0;
        for (std::size_t i = b.row_begin; i < b.row_end; ++i) {
          for (std::size_t j = b.col_begin; j < b.col_end; ++j) {
            if (i < j) {
              ++hits[i * n + j];
              ++pairs;
            }
          }
        }
        EXPECT_EQ(b.pair_count(), pairs);
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(hits[i * n + j], i < j ? 1 : 0)
              << "N=" << n << " n1=" << n1 << " (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(PsaBlocksTest, LargestFirstBalancesACyclicDeal) {
  // 20 trajectories, n1 = 7, 3 ranks: bench_e2e's psa shape. Dealt by
  // row-major index, one rank would get 49 + 42 = 91 of the 190 pairs.
  auto blocks = make_psa_blocks(20, 7);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks.value().size(), 6u);
  std::size_t per_rank[3] = {};
  for (std::size_t b = 0; b < blocks.value().size(); ++b) {
    per_rank[b % 3] += blocks.value()[b].pair_count();
  }
  EXPECT_EQ(per_rank[0] + per_rank[1] + per_rank[2], 190u);
  EXPECT_LE(*std::max_element(per_rank, per_rank + 3), 70u);
}

TEST(PsaBlocksTest, ZeroBlockSizeIsError) {
  EXPECT_FALSE(make_psa_blocks(4, 0).ok());
}

TEST(PsaBlocksTest, BlockLargerThanNIsOneBlock) {
  auto blocks = make_psa_blocks(3, 100);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks.value().size(), 1u);
  EXPECT_EQ(blocks.value()[0].pair_count(), 3u);
}

TEST(DistanceMatrixTest, SetAndGet) {
  DistanceMatrix m(3);
  m.set(1, 2, 4.5);
  EXPECT_EQ(m.at(1, 2), 4.5);
  EXPECT_EQ(m.at(2, 1), 0.0);
}

TEST(DistanceMatrixTest, MaxAbsDiff) {
  DistanceMatrix a(2), b(2);
  a.set(0, 1, 1.0);
  b.set(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 2.5);
  DistanceMatrix c(3);
  EXPECT_TRUE(std::isinf(a.max_abs_diff(c)));
}

TEST(PsaTest, ReferenceMatrixProperties) {
  const auto ensemble = small_ensemble(5);
  const DistanceMatrix d = psa_reference(ensemble);
  ASSERT_EQ(d.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.at(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(d.at(i, j), d.at(j, i));  // the runners mirror on this
      if (i != j) {
        EXPECT_GT(d.at(i, j), 0.0);
      }
    }
  }
}

TEST(PsaTest, BlockedComputationMatchesReference) {
  // The blocks write the upper triangle, bit for bit the reference's;
  // the diagonal and the lower triangle, which the runners mirror, stay
  // untouched.
  const auto ensemble = small_ensemble(6);
  const DistanceMatrix ref = psa_reference(ensemble);
  for (std::size_t n1 : {1u, 2u, 3u, 4u, 6u}) {
    DistanceMatrix out(ensemble.size());
    auto blocks = make_psa_blocks(ensemble.size(), n1);
    ASSERT_TRUE(blocks.ok());
    for (const auto& b : blocks.value()) {
      compute_psa_block(ensemble, b, HausdorffKernel::kNaive, out);
    }
    for (std::size_t i = 0; i < ensemble.size(); ++i) {
      for (std::size_t j = 0; j < ensemble.size(); ++j) {
        EXPECT_EQ(out.at(i, j), i < j ? ref.at(i, j) : 0.0)
            << "n1=" << n1 << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(PsaTest, EarlyBreakKernelMatchesNaive) {
  const auto ensemble = small_ensemble(4);
  const DistanceMatrix a = psa_reference(ensemble, HausdorffKernel::kNaive);
  const DistanceMatrix b =
      psa_reference(ensemble, HausdorffKernel::kEarlyBreak);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST(PsaTest, MatrixEntriesMatchDirectHausdorff) {
  const auto ensemble = small_ensemble(3);
  const DistanceMatrix d = psa_reference(ensemble);
  EXPECT_DOUBLE_EQ(d.at(0, 1), hausdorff_naive(ensemble[0], ensemble[1]));
  EXPECT_DOUBLE_EQ(d.at(1, 2), hausdorff_naive(ensemble[1], ensemble[2]));
}

}  // namespace
}  // namespace mdtask::analysis
