#include "mdtask/workflows/psa_runner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

traj::Ensemble tiny_ensemble(std::size_t count = 6) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 8;
  p.frames = 6;
  return traj::make_protein_ensemble(count, p);
}

std::string label(EngineKind engine, std::size_t n, std::size_t block_size) {
  return std::string(to_string(engine)) + " N=" + std::to_string(n) +
         " n1=" + std::to_string(block_size);
}

/// Every cell equal, bit for bit: the runners compute each pair i < j
/// once and mirror it, the reference computes both orders.
void expect_same_cells(const analysis::DistanceMatrix& got,
                       const analysis::DistanceMatrix& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.at(i, j), want.at(i, j))
          << what << " (" << i << ", " << j << ")";
    }
  }
}

class PsaEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PsaEngineTest, MatchesSerialReference) {
  for (const std::size_t n : {1u, 6u}) {
    const auto ensemble = tiny_ensemble(n);
    const auto reference = analysis::psa_reference(ensemble);
    for (const std::size_t block_size : {0u, 1u, 2u}) {
      PsaRunConfig config;
      config.workers = 3;
      config.block_size = block_size;
      const auto result = run_psa(GetParam(), ensemble, config);
      expect_same_cells(result.matrix, reference,
                        label(GetParam(), n, block_size));
      // N = 1 keeps its one diagonal task, which holds no pair.
      EXPECT_GT(result.metrics.tasks, 0u);
      EXPECT_GT(result.metrics.wall_seconds, 0.0);
    }
  }
}

TEST_P(PsaEngineTest, WorkerCountDoesNotChangeResult) {
  const auto ensemble = tiny_ensemble(5);
  PsaRunConfig one, many;
  one.workers = 1;
  many.workers = 8;
  const auto a = run_psa(GetParam(), ensemble, one);
  const auto b = run_psa(GetParam(), ensemble, many);
  expect_same_cells(b.matrix, a.matrix, to_string(GetParam()));
}

TEST_P(PsaEngineTest, ExplicitBlockSizeHonoured) {
  const auto ensemble = tiny_ensemble(4);
  PsaRunConfig config;
  config.workers = 2;
  config.block_size = 1;  // 6 single-pair tasks + 4 empty diagonal ones
  const auto result = run_psa(GetParam(), ensemble, config);
  EXPECT_EQ(result.metrics.tasks, 10u);
  expect_same_cells(result.matrix, analysis::psa_reference(ensemble),
                    to_string(GetParam()));
}

TEST_P(PsaEngineTest, UnequalAtomCountsThrowBeforeAnyTask) {
  auto ensemble = tiny_ensemble(3);
  traj::ProteinTrajectoryParams p;
  p.atoms = 40;
  p.frames = 6;
  ensemble[1] = traj::make_protein_trajectory(p);
  PsaRunConfig config;
  config.workers = 2;
  for (const auto metric : {PsaMetric::kHausdorff,
                            PsaMetric::kHausdorffEarlyBreak}) {
    config.metric = metric;
    EXPECT_THROW(run_psa(GetParam(), ensemble, config),
                 std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, PsaEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(PsaBlockSizeTest, AutoBlockSizeScalesWithWorkers) {
  PsaRunConfig few, many;
  few.workers = 1;
  many.workers = 64;
  EXPECT_GE(psa_effective_block_size(128, few),
            psa_effective_block_size(128, many));
  EXPECT_GE(psa_effective_block_size(128, many), 1u);
  // ~2 tasks per worker, counted over the upper-triangular blocks: the
  // smallest grid that reaches 2 x workers.
  for (const std::size_t workers : {1u, 2u, 3u, 8u, 64u}) {
    PsaRunConfig config;
    config.workers = workers;
    const std::size_t n1 = psa_effective_block_size(1000, config);
    const std::size_t k = (1000 + n1 - 1) / n1;
    EXPECT_EQ(analysis::make_psa_blocks(1000, n1).value().size(),
              k * (k + 1) / 2);
    EXPECT_GE(k * (k + 1) / 2, 2 * workers) << "workers " << workers;
    EXPECT_LT(k * (k - 1) / 2, 2 * workers) << "workers " << workers;
  }
}

TEST(PsaBlockSizeTest, ExplicitOverrideWins) {
  PsaRunConfig config;
  config.block_size = 13;
  EXPECT_EQ(psa_effective_block_size(1000, config), 13u);
}

TEST(PsaRunTest, EarlyBreakKernelGivesSameMatrix) {
  const auto ensemble = tiny_ensemble(4);
  const auto early_reference = analysis::psa_reference(
      ensemble, analysis::HausdorffKernel::kEarlyBreak);
  PsaRunConfig naive_cfg, early_cfg;
  naive_cfg.metric = PsaMetric::kHausdorff;
  early_cfg.metric = PsaMetric::kHausdorffEarlyBreak;
  for (const EngineKind engine : {EngineKind::kMpi, EngineKind::kSpark,
                                  EngineKind::kDask, EngineKind::kRp}) {
    for (const std::size_t block_size : {0u, 1u}) {
      naive_cfg.block_size = early_cfg.block_size = block_size;
      const auto a = run_psa(engine, ensemble, naive_cfg);
      const auto b = run_psa(engine, ensemble, early_cfg);
      const std::string what = label(engine, ensemble.size(), block_size);
      expect_same_cells(b.matrix, a.matrix, what);
      expect_same_cells(b.matrix, early_reference, what);
    }
  }
}

class PsaFrechetEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PsaFrechetEngineTest, FrechetMetricMatchesSerialReference) {
  for (const std::size_t n : {1u, 5u}) {
    const auto ensemble = tiny_ensemble(n);
    const auto reference = analysis::psa_reference_frechet(ensemble);
    for (const std::size_t block_size : {0u, 1u}) {
      PsaRunConfig config;
      config.workers = 3;
      config.block_size = block_size;
      config.metric = PsaMetric::kFrechet;
      const auto result = run_psa(GetParam(), ensemble, config);
      expect_same_cells(result.matrix, reference,
                        label(GetParam(), n, block_size));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, PsaFrechetEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(PsaRunTest, SparkAccountsBroadcast) {
  const auto ensemble = tiny_ensemble(4);
  const auto result = run_psa(EngineKind::kSpark, ensemble, {});
  EXPECT_GT(result.metrics.broadcast_bytes, 0u);
}

TEST(PsaRunTest, RpPaysDbAndStaging) {
  const auto ensemble = tiny_ensemble(4);
  const auto result = run_psa(EngineKind::kRp, ensemble, {});
  EXPECT_GT(result.metrics.db_roundtrips, 0u);
  EXPECT_GT(result.metrics.staged_bytes, 0u);
}

}  // namespace
}  // namespace mdtask::workflows
