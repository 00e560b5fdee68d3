#include "mdtask/cpptraj/rmsd2d.h"

#include <gtest/gtest.h>

#include "mdtask/analysis/rmsd.h"
#include "mdtask/traj/generators.h"

namespace mdtask::cpptraj {
namespace {

traj::Trajectory make_traj(std::uint64_t seed, std::size_t frames = 10,
                           std::size_t atoms = 33) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = atoms;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

TEST(Rmsd2dTest, ReferenceMatchesFrameRmsd) {
  const auto a = make_traj(1), b = make_traj(2);
  const auto m = rmsd2d_block_reference(a, b);
  ASSERT_EQ(m.size(), a.frames() * b.frames());
  for (std::size_t i = 0; i < a.frames(); ++i) {
    for (std::size_t j = 0; j < b.frames(); ++j) {
      EXPECT_NEAR(m[i * b.frames() + j],
                  analysis::frame_rmsd(a.frame(i), b.frame(j)), 1e-12);
    }
  }
}

TEST(Rmsd2dTest, OptimizedMatchesReference) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    // Odd atom count exercises the unrolled loop's scalar tail.
    const auto a = make_traj(seed, 7, 41);
    const auto b = make_traj(seed + 50, 9, 41);
    const auto ref = rmsd2d_block_reference(a, b);
    const auto opt = rmsd2d_block_optimized(a, b);
    ASSERT_EQ(ref.size(), opt.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(ref[i], opt[i], 1e-9) << "seed " << seed << " i " << i;
    }
  }
}

}  // namespace
}  // namespace mdtask::cpptraj
