#include "mdtask/workflows/leaflet_runner.h"

#include <gtest/gtest.h>

#include "mdtask/traj/generators.h"

namespace mdtask::workflows {
namespace {

/// gtest-safe identifier for an engine (names reject '-').
std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

struct Fixture {
  traj::Bilayer bilayer;
  double cutoff;
  analysis::LeafletResult reference;

  explicit Fixture(std::size_t atoms = 500) {
    traj::BilayerParams p;
    p.atoms = atoms;
    bilayer = traj::make_bilayer(p);
    cutoff = traj::default_cutoff(p);
    reference = analysis::leaflet_finder_reference(bilayer.positions, cutoff);
  }
};

const Fixture& fixture() {
  static const Fixture fx;
  return fx;
}

class LfMatrixTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(LfMatrixTest, EveryEngineAndApproachMatchesReference) {
  const auto [engine, approach] = GetParam();
  const auto& fx = fixture();
  LfRunConfig config;
  config.workers = 4;
  config.target_tasks = 10;
  auto result = run_leaflet_finder(engine, approach, fx.bilayer.positions,
                                   fx.cutoff, config);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().leaflets.labels, fx.reference.labels)
      << to_string(engine) << " approach " << approach;
  EXPECT_EQ(result.value().leaflets.component_count, 2u);
  EXPECT_GT(result.value().metrics.tasks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LfMatrixTest,
    ::testing::Combine(::testing::Values(EngineKind::kMpi, EngineKind::kSpark,
                                         EngineKind::kDask, EngineKind::kRp),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& param_info) {
      return engine_id(std::get<0>(param_info.param)) + "_A" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(LfRunnerTest, InvalidApproachRejected) {
  const auto& fx = fixture();
  EXPECT_FALSE(run_leaflet_finder(EngineKind::kSpark, 0,
                                  fx.bilayer.positions, fx.cutoff, {})
                   .ok());
  EXPECT_FALSE(run_leaflet_finder(EngineKind::kSpark, 5,
                                  fx.bilayer.positions, fx.cutoff, {})
                   .ok());
}

TEST(LfRunnerTest, DriverMergeEqualsTreeReduce) {
  // Spark and Dask merge the summaries as a tree of pairwise merges; MPI
  // and RP gather them into one k-way merge at the driver. 8 and 64
  // target tasks give 6 and 55 summaries, so Spark's tree runs a
  // shuffle level at 64.
  const auto& fx = fixture();
  for (std::size_t target_tasks : {8u, 64u}) {
    LfRunConfig config;
    config.target_tasks = target_tasks;
    for (int approach : {3, 4}) {
      auto driver = run_leaflet_finder(EngineKind::kMpi, approach,
                                       fx.bilayer.positions, fx.cutoff,
                                       config);
      ASSERT_TRUE(driver.ok()) << driver.error().to_string();
      for (EngineKind engine : {EngineKind::kRp, EngineKind::kSpark,
                                EngineKind::kDask}) {
        auto run = run_leaflet_finder(engine, approach, fx.bilayer.positions,
                                      fx.cutoff, config);
        ASSERT_TRUE(run.ok()) << run.error().to_string();
        EXPECT_EQ(run.value().leaflets.labels, driver.value().leaflets.labels)
            << to_string(engine) << " approach " << approach << " at "
            << target_tasks << " tasks";
      }
    }
  }
}

class LfMemoryWallTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(LfMemoryWallTest, CdistApproachesHitMemoryLimit) {
  const auto& fx = fixture();
  LfRunConfig config;
  config.target_tasks = 4;          // big blocks
  config.task_memory_limit = 1024;  // tiny limit: cdist cannot fit
  for (int approach : {1, 2, 3}) {
    auto result = run_leaflet_finder(GetParam(), approach,
                                     fx.bilayer.positions, fx.cutoff, config);
    ASSERT_FALSE(result.ok()) << "approach " << approach;
    EXPECT_EQ(result.error().code(), ErrorCode::kResourceExhausted);
  }
}

TEST_P(LfMemoryWallTest, TreeSearchSurvivesTheSameLimit) {
  // The paper's Sec. 4.3.4: the tree has a much smaller footprint, which
  // let approach 4 scale to 4M atoms without changing the task count.
  const auto& fx = fixture();
  LfRunConfig config;
  config.target_tasks = 4;
  config.task_memory_limit = 64 * 1024;
  auto result = run_leaflet_finder(GetParam(), 4, fx.bilayer.positions,
                                   fx.cutoff, config);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().leaflets.labels, fx.reference.labels);
}

INSTANTIATE_TEST_SUITE_P(Engines, LfMemoryWallTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(LfRunnerTest, DaskRecordsWorkerRestarts) {
  const auto& fx = fixture();
  LfRunConfig config;
  config.target_tasks = 4;
  config.task_memory_limit = 1024;
  auto result = run_leaflet_finder(EngineKind::kDask, 2,
                                   fx.bilayer.positions, fx.cutoff, config);
  ASSERT_FALSE(result.ok());
  // The failure message documents the restart loop behaviour.
  EXPECT_NE(result.error().message().find("restart"), std::string::npos);
}

TEST(LfRunnerTest, Approach3ShufflesLessThanApproach2OnSpark) {
  // Table 2's point: partial components (O(n)) vs edge lists (O(E)).
  const auto& fx = fixture();
  LfRunConfig config;
  config.target_tasks = 12;
  auto a2 = run_leaflet_finder(EngineKind::kSpark, 2, fx.bilayer.positions,
                               fx.cutoff, config);
  auto a3 = run_leaflet_finder(EngineKind::kSpark, 3, fx.bilayer.positions,
                               fx.cutoff, config);
  auto dask = run_leaflet_finder(EngineKind::kDask, 3, fx.bilayer.positions,
                                 fx.cutoff, config);
  ASSERT_TRUE(a2.ok() && a3.ok() && dask.ok());
  // A2 gathers edges at the driver (collect, not via shuffle counters);
  // compare data volume: edges found x sizeof(Edge) vs shuffle_bytes.
  EXPECT_GT(a2.value().edges_found * sizeof(analysis::Edge),
            a3.value().metrics.shuffle_bytes);
  // 12 target tasks give 10 summaries: Spark's tree runs one shuffle
  // level, which moves every summary once, as Dask counts them.
  ASSERT_EQ(a3.value().metrics.tasks, 10u + 2u);  // map + one level
  EXPECT_GT(a3.value().metrics.shuffle_bytes, 0u);
  EXPECT_EQ(a3.value().metrics.shuffle_bytes,
            dask.value().metrics.shuffle_bytes);
}

TEST(LfRunnerTest, MpiBroadcastMeasuredForApproach1) {
  const auto& fx = fixture();
  LfRunConfig config;
  config.workers = 4;
  config.target_tasks = 8;
  auto result = run_leaflet_finder(EngineKind::kMpi, 1,
                                   fx.bilayer.positions, fx.cutoff, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().distribute_seconds, 0.0);
  EXPECT_GT(result.value().metrics.shuffle_bytes, 0u);
}

TEST(LfRunnerTest, EdgeCountsAgreeAcrossApproaches12) {
  const auto& fx = fixture();
  LfRunConfig config;
  config.target_tasks = 9;
  auto a1 = run_leaflet_finder(EngineKind::kDask, 1, fx.bilayer.positions,
                               fx.cutoff, config);
  auto a2 = run_leaflet_finder(EngineKind::kDask, 2, fx.bilayer.positions,
                               fx.cutoff, config);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_EQ(a1.value().edges_found, a2.value().edges_found);
}

}  // namespace
}  // namespace mdtask::workflows
