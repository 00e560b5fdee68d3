#include "mdtask/workflows/frame_series.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mdtask/traj/generators.h"

namespace mdtask::workflows {
namespace {

std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

// A sample per-frame observable: the radius of gyration about the
// frame's centroid.
const FrameObservable kRadiusOfGyration =
    [](std::span<const traj::Vec3> frame) {
      if (frame.empty()) return 0.0;
      double x = 0, y = 0, z = 0;
      for (const auto& p : frame) {
        x += p.x;
        y += p.y;
        z += p.z;
      }
      const double n = static_cast<double>(frame.size());
      double sum = 0.0;
      for (const auto& p : frame) {
        const double dx = p.x - x / n, dy = p.y - y / n, dz = p.z - z / n;
        sum += dx * dx + dy * dy + dz * dz;
      }
      return std::sqrt(sum / n);
    };

traj::Trajectory make_traj(std::size_t frames = 25) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = 18;
  return traj::make_protein_trajectory(p);
}

class FrameSeriesEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FrameSeriesEngineTest, RadiusOfGyrationSeriesMatchesSerial) {
  const auto t = make_traj();
  FrameSeriesConfig config;
  config.workers = 3;
  const auto result =
      run_frame_series(GetParam(), t, kRadiusOfGyration, config);
  ASSERT_EQ(result.series.size(), t.frames());
  for (std::size_t f = 0; f < t.frames(); ++f) {
    EXPECT_DOUBLE_EQ(result.series[f], kRadiusOfGyration(t.frame(f)));
  }
  EXPECT_GT(result.metrics.tasks, 1u);
}

TEST_P(FrameSeriesEngineTest, BlockSizeDoesNotChangeValues) {
  const auto t = make_traj(17);
  FrameSeriesConfig coarse, fine;
  coarse.frame_block = 17;
  fine.frame_block = 1;
  const auto a = run_frame_series(GetParam(), t, kRadiusOfGyration, coarse);
  const auto b = run_frame_series(GetParam(), t, kRadiusOfGyration, fine);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(b.metrics.tasks, 17u);
}

INSTANTIATE_TEST_SUITE_P(Engines, FrameSeriesEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(FrameSeriesTest, EmptyTrajectory) {
  const auto result = run_frame_series(
      EngineKind::kDask, traj::Trajectory(),
      [](std::span<const traj::Vec3>) { return 1.0; });
  EXPECT_TRUE(result.series.empty());
}

TEST(FrameSeriesTest, CrossFrameReduceOnTopOfParallelMap) {
  // The HiMach pattern: parallel per-frame map, then a cheap cross-frame
  // reduce at the driver (here: the frame index of the maximum Rg).
  const auto t = make_traj(30);
  const auto result =
      run_frame_series(EngineKind::kSpark, t, kRadiusOfGyration);
  std::size_t argmax = 0;
  for (std::size_t f = 1; f < result.series.size(); ++f) {
    if (result.series[f] > result.series[argmax]) argmax = f;
  }
  EXPECT_LT(argmax, t.frames());
  EXPECT_GT(result.series[argmax], 0.0);
}

}  // namespace
}  // namespace mdtask::workflows
