// The byte-identical guard: streaming PSA / Leaflet Finder over a
// sharded store must produce results bit-for-bit equal to the in-memory
// runners on every engine — the property that lets published figure
// CSVs stay identical whether the input was materialized or streamed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "mdtask/kernels/batch.h"
#include "mdtask/stream/shard_format.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "mdtask/workflows/leaflet_runner.h"
#include "mdtask/workflows/psa_runner.h"
#include "support/temp_path.h"
#include "support/mds_bytes.h"

namespace mdtask::workflows {
namespace {

using stream::ShardStoreOptions;
using stream::write_sharded;
using stream::write_sharded_points;

constexpr EngineKind kEngines[] = {EngineKind::kMpi, EngineKind::kSpark,
                                   EngineKind::kDask, EngineKind::kRp};

class StreamWorkflowTest : public ::testing::Test {
 protected:
  std::string path_ = testutil::unique_temp_path("mds");
  void TearDown() override { std::remove(path_.c_str()); }

  /// Flips one payload byte of the middle shard, failing its checksum.
  void corrupt_middle_shard() {
    std::uint64_t flip_at = 0;
    {
      auto reader = stream::ShardReader::open(path_);
      ASSERT_TRUE(reader.ok());
      const auto& index = reader.value().info().index;
      const auto& victim = index[index.size() / 2];
      ASSERT_GT(victim.stored_bytes, 0u);
      flip_at = victim.offset + victim.stored_bytes / 2;
    }
    std::vector<char> bytes = testutil::read_store(path_);
    ASSERT_LT(flip_at, bytes.size());
    bytes[flip_at] ^= 0x5a;
    testutil::write_store(path_, bytes);
  }
};

/// The PSA store layout: N trajectories concatenated frame-major.
traj::Trajectory concatenate(const traj::Ensemble& ensemble) {
  const std::size_t frames_each = ensemble.front().frames();
  const std::size_t atoms = ensemble.front().atoms();
  traj::Trajectory all(frames_each * ensemble.size(), atoms);
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    std::memcpy(all.data().data() + i * frames_each * atoms,
                ensemble[i].data().data(),
                frames_each * atoms * sizeof(traj::Vec3));
  }
  return all;
}

TEST_F(StreamWorkflowTest, PsaMatrixBitIdenticalOnEveryEngine) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 19;
  p.frames = 12;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(6, p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 5;  // deliberately misaligned with 12-frame rows
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());

  StreamInput input;
  input.path = path_;
  input.trajectories = ensemble.size();
  PsaRunConfig config;
  config.workers = 3;
  for (const EngineKind engine : kEngines) {
    const PsaRunResult memory = run_psa(engine, ensemble, config);
    auto streamed = run_psa_streamed(engine, input, config);
    ASSERT_TRUE(streamed.ok())
        << to_string(engine) << ": " << streamed.error().to_string();
    EXPECT_EQ(streamed.value().matrix.data(), memory.matrix.data())
        << to_string(engine);
    EXPECT_EQ(streamed.value().metrics.tasks, memory.metrics.tasks);
    EXPECT_GT(streamed.value().metrics.staged_bytes, 0u);
  }
}

TEST_F(StreamWorkflowTest, PsaMatrixEqualsDirectedScansOnEveryEngine) {
  // The naive PSA kernel computes each frame-pair distance once for both
  // directions, and run_psa shares that kernel. Check every engine's
  // streamed matrix against one built only from the two directed scans.
  traj::ProteinTrajectoryParams p;
  p.atoms = 21;
  p.frames = 9;  // straddles the kernel's pair tile
  const traj::Ensemble ensemble = traj::make_protein_ensemble(5, p);
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble)).ok());

  const std::size_t n = ensemble.size();
  std::vector<kernels::FramePack> packs;
  for (const auto& t : ensemble) packs.push_back(kernels::pack_trajectory(t));
  std::vector<double> expected(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      expected[i * n + j] = std::max(
          kernels::hausdorff_directed_packed(packs[i], packs[j], false,
                                             kernels::KernelPolicy::kScalar),
          kernels::hausdorff_directed_packed(packs[j], packs[i], false,
                                             kernels::KernelPolicy::kScalar));
    }
  }

  StreamInput input;
  input.path = path_;
  input.trajectories = n;
  PsaRunConfig config;
  config.workers = 3;
  for (const EngineKind engine : kEngines) {
    auto streamed = run_psa_streamed(engine, input, config);
    ASSERT_TRUE(streamed.ok())
        << to_string(engine) << ": " << streamed.error().to_string();
    EXPECT_EQ(streamed.value().matrix.data(), expected) << to_string(engine);
  }
}

TEST_F(StreamWorkflowTest, PsaStreamedEqualsReferenceForEveryMetric) {
  // The block tasks compute the pairs i < j and the runner mirrors them;
  // the references compute every ordered pair. Each cell must agree bit
  // for bit, one trajectory and single-pair blocks included.
  traj::ProteinTrajectoryParams p;
  p.atoms = 13;
  p.frames = 7;
  for (const std::size_t n : {1u, 5u}) {
    const traj::Ensemble ensemble = traj::make_protein_ensemble(n, p);
    ShardStoreOptions opts;
    opts.frames_per_shard = 3;
    ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());
    const struct {
      PsaMetric metric;
      analysis::DistanceMatrix reference;
    } cases[] = {
        {PsaMetric::kHausdorff, analysis::psa_reference(ensemble)},
        {PsaMetric::kHausdorffEarlyBreak,
         analysis::psa_reference(ensemble,
                                 analysis::HausdorffKernel::kEarlyBreak)},
        {PsaMetric::kFrechet, analysis::psa_reference_frechet(ensemble)},
    };
    StreamInput input;
    input.path = path_;
    input.trajectories = n;
    for (const auto& c : cases) {
      for (const std::size_t block_size : {0u, 1u}) {
        PsaRunConfig config;
        config.workers = 3;
        config.block_size = block_size;
        config.metric = c.metric;
        for (const EngineKind engine : kEngines) {
          auto streamed = run_psa_streamed(engine, input, config);
          ASSERT_TRUE(streamed.ok())
              << to_string(engine) << ": " << streamed.error().to_string();
          const auto& got = streamed.value().matrix;
          ASSERT_EQ(got.size(), n);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              EXPECT_EQ(got.at(i, j), c.reference.at(i, j))
                  << to_string(engine) << " metric "
                  << static_cast<int>(c.metric) << " N=" << n
                  << " n1=" << block_size << " (" << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST_F(StreamWorkflowTest, PsaMmapModeAlsoBitIdentical) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 11;
  p.frames = 8;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(4, p);
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble)).ok());
  StreamInput input;
  input.path = path_;
  input.mode = stream::ShardReader::Mode::kMmap;
  input.trajectories = ensemble.size();
  const PsaRunResult memory = run_psa(EngineKind::kDask, ensemble);
  auto streamed = run_psa_streamed(EngineKind::kDask, input);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.value().matrix.data(), memory.matrix.data());
}

TEST_F(StreamWorkflowTest, PsaRejectsBadInputs) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 5;
  p.frames = 7;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(3, p);
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble)).ok());

  StreamInput input;
  input.path = path_;
  input.trajectories = 0;  // unset
  auto unset = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(unset.ok());
  EXPECT_EQ(unset.error().code(), ErrorCode::kInvalidArgument);

  input.trajectories = 4;  // 21 frames do not divide into 4 rows
  auto misaligned = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.error().code(), ErrorCode::kInvalidArgument);

  input.path = ::testing::TempDir() + "/no-such-store.mds";
  input.trajectories = 3;
  auto missing = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(missing.ok());
}

TEST_F(StreamWorkflowTest, PsaStreamedRejectsShardsThatMissTheirFrames) {
  // Block tasks read each trajectory's frame range through the header's
  // shard map; a header whose shards do not tile the frames must fail
  // typed on every engine instead of copying past a decoded shard.
  traj::ProteinTrajectoryParams p;
  p.atoms = 7;
  p.frames = 8;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(4, p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;  // 8 shards for 32 frames

  StreamInput input;
  input.path = path_;
  input.trajectories = ensemble.size();
  PsaRunConfig config;
  config.workers = 2;
  auto expect_every_engine_fails = [&](ErrorCode code, const char* what) {
    for (const EngineKind engine : kEngines) {
      auto streamed = run_psa_streamed(engine, input, config);
      ASSERT_FALSE(streamed.ok()) << what << ", " << to_string(engine);
      EXPECT_EQ(streamed.error().code(), code)
          << what << ", " << to_string(engine) << ": "
          << streamed.error().to_string();
    }
  };

  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());
  testutil::zero_frames_per_shard(path_);
  expect_every_engine_fails(ErrorCode::kFormatError, "zero frames per shard");

  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());
  testutil::set_shard_count(path_, 1);
  expect_every_engine_fails(ErrorCode::kOutOfRange, "one shard");
}

TEST_F(StreamWorkflowTest, PsaStreamedReadsEachShardOnce) {
  // Every block task loads its row and column trajectories, so most
  // trajectories are wanted by several blocks, and the 5-frame shards
  // straddle the 12-frame trajectories. A streamed run still decodes
  // each shard once: it stages exactly the store's stored bytes beyond
  // what the in-memory run stages.
  traj::ProteinTrajectoryParams p;
  p.atoms = 19;
  p.frames = 12;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(6, p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 5;
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());
  auto reader = stream::ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  std::uint64_t stored = 0;
  for (const auto& entry : reader.value().info().index) {
    stored += entry.stored_bytes;
  }

  StreamInput input;
  input.path = path_;
  input.trajectories = ensemble.size();
  PsaRunConfig config;
  config.workers = 3;
  for (const EngineKind engine : kEngines) {
    const PsaRunResult memory = run_psa(engine, ensemble, config);
    auto streamed = run_psa_streamed(engine, input, config);
    ASSERT_TRUE(streamed.ok())
        << to_string(engine) << ": " << streamed.error().to_string();
    EXPECT_EQ(streamed.value().metrics.staged_bytes -
                  memory.metrics.staged_bytes,
              stored)
        << to_string(engine);
  }
}

TEST_F(StreamWorkflowTest, PsaStreamedCorruptShardFailsTyped) {
  // The PSA twin of LeafletStreamedCorruptShardFailsTyped: no matrix is
  // built from unverified bytes on any engine.
  traj::ProteinTrajectoryParams p;
  p.atoms = 19;
  p.frames = 12;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(6, p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 5;
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());
  ASSERT_NO_FATAL_FAILURE(corrupt_middle_shard());

  StreamInput input;
  input.path = path_;
  input.trajectories = ensemble.size();
  PsaRunConfig config;
  config.workers = 3;
  for (const EngineKind engine : kEngines) {
    auto streamed = run_psa_streamed(engine, input, config);
    ASSERT_FALSE(streamed.ok()) << to_string(engine);
    EXPECT_EQ(streamed.error().code(), ErrorCode::kFormatError)
        << to_string(engine) << ": " << streamed.error().to_string();
  }
}

TEST_F(StreamWorkflowTest, LeafletBitIdenticalAcrossEnginesAndApproaches) {
  traj::BilayerParams p;
  p.atoms = 1024;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;  // atom ranges cross block boundaries
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  for (const EngineKind engine : kEngines) {
    for (int approach = 1; approach <= 4; ++approach) {
      auto memory =
          run_leaflet_finder(engine, approach, bilayer.positions, cutoff,
                             config);
      ASSERT_TRUE(memory.ok());
      auto streamed =
          run_leaflet_finder_streamed(engine, approach, input, cutoff,
                                      config);
      ASSERT_TRUE(streamed.ok()) << to_string(engine) << " approach "
                                 << approach << ": "
                                 << streamed.error().to_string();
      const auto& a = memory.value().leaflets;
      const auto& b = streamed.value().leaflets;
      EXPECT_EQ(b.labels, a.labels)
          << to_string(engine) << " approach " << approach;
      EXPECT_EQ(b.component_count, a.component_count);
      EXPECT_EQ(b.leaflet_a_size, a.leaflet_a_size);
      EXPECT_EQ(b.leaflet_b_size, a.leaflet_b_size);
      EXPECT_EQ(streamed.value().edges_found, memory.value().edges_found);
      EXPECT_GT(streamed.value().metrics.staged_bytes, 0u);
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletStreamedReadsEachShardOnce) {
  // A streamed run decodes each shard at most once, however many blocks
  // overlap it. RP also stages every unit's output file, and the
  // in-memory run stages the same outputs, so the bytes a streamed run
  // stages beyond the in-memory run are exactly the store's stored
  // bytes: one read of every shard.
  traj::BilayerParams p;
  p.atoms = 1024;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;  // atom ranges cross block boundaries
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  auto reader = stream::ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  std::uint64_t stored = 0;
  for (const auto& entry : reader.value().info().index) {
    stored += entry.stored_bytes;
  }

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  for (const EngineKind engine : kEngines) {
    for (int approach = 2; approach <= 4; ++approach) {
      auto memory = run_leaflet_finder(engine, approach, bilayer.positions,
                                       cutoff, config);
      ASSERT_TRUE(memory.ok());
      auto streamed =
          run_leaflet_finder_streamed(engine, approach, input, cutoff,
                                      config);
      ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
      EXPECT_EQ(streamed.value().metrics.staged_bytes -
                    memory.value().metrics.staged_bytes,
                stored)
          << to_string(engine) << " approach " << approach;
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletStreamedCorruptShardFailsTyped) {
  // One flipped payload byte fails its shard's checksum. The failed read
  // leaves the shard's slot empty, so every task that needs the shard
  // reads it again and fails the same way: each run returns the typed
  // error, never an answer built from unverified bytes.
  traj::BilayerParams p;
  p.atoms = 1024;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  ASSERT_NO_FATAL_FAILURE(corrupt_middle_shard());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  for (const EngineKind engine : kEngines) {
    for (int approach = 2; approach <= 4; ++approach) {
      auto streamed =
          run_leaflet_finder_streamed(engine, approach, input, cutoff,
                                      config);
      ASSERT_FALSE(streamed.ok())
          << to_string(engine) << " approach " << approach;
      EXPECT_EQ(streamed.error().code(), ErrorCode::kFormatError)
          << to_string(engine) << " approach " << approach << ": "
          << streamed.error().to_string();
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletStreamedRejectsShardsThatMissTheirFrames) {
  // Two headers whose shards do not cover the atoms they claim. Every
  // run must fail typed instead of indexing past the shard slots or
  // copying past a decoded shard.
  traj::BilayerParams p;
  p.atoms = 1024;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;
  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  auto expect_every_run_fails = [&](ErrorCode code, const char* what) {
    for (const EngineKind engine : kEngines) {
      for (int approach = 2; approach <= 4; ++approach) {
        auto streamed =
            run_leaflet_finder_streamed(engine, approach, input, cutoff,
                                        config);
        ASSERT_FALSE(streamed.ok())
            << what << ", " << to_string(engine) << " approach " << approach;
        EXPECT_EQ(streamed.error().code(), code)
            << what << ", " << to_string(engine) << " approach " << approach
            << ": " << streamed.error().to_string();
      }
    }
  };

  // Zero frames per shard maps every atom to shard 0, rewritten as a
  // valid empty payload that passes its checks.
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  testutil::zero_frames_per_shard(path_);
  expect_every_run_fails(ErrorCode::kFormatError, "empty shard 0");

  // One indexed shard for 1024 atoms at 100 per shard.
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  testutil::set_shard_count(path_, 1);
  expect_every_run_fails(ErrorCode::kOutOfRange, "one shard");
}

TEST_F(StreamWorkflowTest, LeafletStreamedRejectsSeveralAtomsPerFrame) {
  // The Leaflet Finder reads a points store: one atom per frame. A
  // trajectory store of 256 frames x 8 atoms must be refused before any
  // task runs, by every approach on every engine, instead of indexing
  // past a chunk's points.
  traj::ProteinTrajectoryParams p;
  p.atoms = 8;
  p.frames = 256;
  ShardStoreOptions opts;
  opts.frames_per_shard = 32;
  ASSERT_TRUE(
      write_sharded(path_, traj::make_protein_trajectory(p), opts).ok());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  for (const EngineKind engine : kEngines) {
    for (int approach = 1; approach <= 4; ++approach) {
      auto streamed =
          run_leaflet_finder_streamed(engine, approach, input, 5.0, config);
      ASSERT_FALSE(streamed.ok())
          << to_string(engine) << " approach " << approach;
      EXPECT_EQ(streamed.error().code(), ErrorCode::kInvalidArgument)
          << to_string(engine) << " approach " << approach << ": "
          << streamed.error().to_string();
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletStreamedSurvivesInjectedReadFaults) {
  // A transient read error injected into an engine task fails the
  // attempt; the engine's native recovery re-runs it. The retried task
  // may find its shards already decoded by an earlier task, since the
  // run decodes each shard once — results stay byte-identical and the
  // log is seeded.
  traj::BilayerParams p;
  p.atoms = 512;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions).ok());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 2;
  config.target_tasks = 8;
  auto memory = run_leaflet_finder(EngineKind::kDask, 3, bilayer.positions,
                                   cutoff, config);
  ASSERT_TRUE(memory.ok());

  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kTransientReadError, 1, 0});
  plan.retry.max_attempts = 3;
  std::vector<std::string> canonical_first;
  for (int round = 0; round < 2; ++round) {
    fault::RecoveryLog log;
    LfRunConfig faulted = config;
    faulted.fault_plan = &plan;
    faulted.recovery_log = &log;
    auto streamed = run_leaflet_finder_streamed(EngineKind::kDask, 3, input,
                                                cutoff, faulted);
    ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
    EXPECT_EQ(streamed.value().leaflets.labels, memory.value().leaflets.labels);
    EXPECT_GE(log.size(), 1u);
    if (round == 0) {
      canonical_first = log.canonical();
    } else {
      EXPECT_EQ(log.canonical(), canonical_first);  // seed-deterministic
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletRejectsUnknownApproachAndMissingStore) {
  traj::BilayerParams p;
  p.atoms = 64;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions).ok());
  StreamInput input;
  input.path = path_;
  auto bad = run_leaflet_finder_streamed(EngineKind::kMpi, 5, input, 1.5);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);

  input.path = ::testing::TempDir() + "/no-such-store.mds";
  auto missing = run_leaflet_finder_streamed(EngineKind::kMpi, 2, input, 1.5);
  ASSERT_FALSE(missing.ok());
}

}  // namespace
}  // namespace mdtask::workflows
