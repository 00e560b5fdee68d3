// Round-trip property tests for the sharded store (MDS) format:
// randomized seeded trajectories across shard sizes and compression
// settings must decode byte-identically, and every corruption class
// (truncation, bit-flip, bad magic, shards that do not tile the frames,
// shapes and raw sizes the file cannot back) must be rejected with a
// typed error before any garbage reaches an analysis kernel.
#include "mdtask/stream/shard_format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <vector>

#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "support/temp_path.h"
#include "support/mds_bytes.h"

namespace mdtask::stream {
namespace {

class ShardFormatTest : public ::testing::Test {
 protected:
  std::string path_ = testutil::unique_temp_path("mds");
  void TearDown() override { std::remove(path_.c_str()); }
};

traj::Trajectory random_trajectory(std::size_t frames, std::size_t atoms,
                                   std::uint64_t seed) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = atoms;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

void expect_identical(const traj::Trajectory& got,
                      const traj::Trajectory& want) {
  ASSERT_EQ(got.frames(), want.frames());
  ASSERT_EQ(got.atoms(), want.atoms());
  const auto a = got.data();
  const auto b = want.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST_F(ShardFormatTest, RoundTripAcrossShardSizesAndCompression) {
  // Property sweep: shard sizes that divide the frame count, that don't
  // (short last shard), and the degenerate one-frame-per-shard case,
  // each with the codec on and off, over distinct seeded trajectories.
  const std::size_t kFramesPerShard[] = {1, 3, 8, 64};
  std::uint64_t seed = 100;
  for (const bool compress : {true, false}) {
    for (const std::size_t fps : kFramesPerShard) {
      const traj::Trajectory t = random_trajectory(21, 17, seed++);
      ShardStoreOptions opts;
      opts.frames_per_shard = fps;
      opts.delta_compress = compress;
      ASSERT_TRUE(write_sharded(path_, t, opts).ok());

      auto reader = ShardReader::open(path_);
      ASSERT_TRUE(reader.ok()) << reader.error().to_string();
      const ShardReader& r = reader.value();
      EXPECT_EQ(r.frames(), t.frames());
      EXPECT_EQ(r.atoms(), t.atoms());
      EXPECT_EQ(r.shard_count(), (t.frames() + fps - 1) / fps);
      EXPECT_EQ(r.info().compressed(), compress);

      auto back = r.read_all();
      ASSERT_TRUE(back.ok()) << back.error().to_string();
      expect_identical(back.value(), t);
    }
  }
}

TEST_F(ShardFormatTest, ReadShardAndFrameRangesMatchSource) {
  const traj::Trajectory t = random_trajectory(26, 9, 7);
  ShardStoreOptions opts;
  opts.frames_per_shard = 8;  // shards: 8, 8, 8, 2
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  const ShardReader& r = reader.value();

  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    const auto [first, count] = r.shard_range(s);
    auto shard = r.read_shard(s);
    ASSERT_TRUE(shard.ok());
    ASSERT_EQ(shard.value().frames(), count);
    for (std::size_t f = 0; f < count; ++f) {
      for (std::size_t a = 0; a < t.atoms(); ++a) {
        ASSERT_EQ(shard.value().frame(f)[a], t.frame(first + f)[a]);
      }
    }
  }

  // A range crossing two shard boundaries, through a run's decoded
  // store: it decodes the three shards the range overlaps.
  auto opened = ShardReader::open(path_);
  ASSERT_TRUE(opened.ok());
  DecodedStore store(std::move(opened).value());
  auto range = store.frames(6, 12);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(store.reader().shards_fetched(), 3u);
  ASSERT_EQ(range.value().frames(), 12u);
  for (std::size_t f = 0; f < 12; ++f) {
    for (std::size_t a = 0; a < t.atoms(); ++a) {
      ASSERT_EQ(range.value().frame(f)[a], t.frame(6 + f)[a]);
    }
  }
  EXPECT_GT(r.bytes_read(), 0u);
  EXPECT_GT(r.shards_fetched(), 0u);
}

TEST_F(ShardFormatTest, MmapModeMatchesStreamMode) {
  const traj::Trajectory t = random_trajectory(12, 23, 11);
  ASSERT_TRUE(write_sharded(path_, t).ok());
  auto mapped = ShardReader::open(path_, ShardReader::Mode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.error().to_string();
  auto back = mapped.value().read_all();
  ASSERT_TRUE(back.ok());
  expect_identical(back.value(), t);
}

TEST_F(ShardFormatTest, PointCloudRoundTrip) {
  traj::BilayerParams p;
  p.atoms = 512;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;  // 512 points -> 6 shards, last short
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().frames(), bilayer.positions.size());
  EXPECT_EQ(reader.value().atoms(), 1u);
  auto back = reader.value().read_all();
  ASSERT_TRUE(back.ok());
  const auto data = back.value().data();
  ASSERT_EQ(data.size(), bilayer.positions.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], bilayer.positions[i]);
  }
}

TEST_F(ShardFormatTest, DeltaCodecIsLosslessOnRandomBytes) {
  // The codec must invert on arbitrary payloads, not just smooth MD
  // data; fuzz with incompressible bytes and zero-dense bytes.
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 8; ++round) {
    const std::size_t frame_bytes = 24 * (1 + round % 3);
    const std::size_t frames = 1 + (round * 7) % 11;
    std::vector<std::uint8_t> raw(frame_bytes * frames);
    for (auto& b : raw) {
      // Even rounds: random bytes. Odd rounds: mostly zeros (RLE path).
      b = (round % 2 == 0 || rng() % 4 == 0)
              ? static_cast<std::uint8_t>(rng())
              : 0;
    }
    const std::vector<std::uint8_t> encoded = delta_encode(raw, frame_bytes);
    std::vector<std::uint8_t> decoded(raw.size());
    const Status status = delta_decode_into(encoded, frame_bytes, decoded);
    ASSERT_TRUE(status.ok()) << status.error().to_string();
    ASSERT_EQ(decoded, raw) << "round " << round;
  }
}

TEST_F(ShardFormatTest, SmoothTrajectoriesCompress) {
  // The whole point of XOR-delta: consecutive MD frames differ in few
  // mantissa bits, so the stored file shrinks versus the raw payload.
  const traj::Trajectory t = random_trajectory(64, 333, 3);
  ShardStoreOptions raw_opts;
  raw_opts.delta_compress = false;
  ASSERT_TRUE(write_sharded(path_, t, raw_opts).ok());
  auto raw_reader = ShardReader::open(path_);
  ASSERT_TRUE(raw_reader.ok());
  std::uint64_t raw_stored = 0;
  for (const auto& e : raw_reader.value().info().index) {
    raw_stored += e.stored_bytes;
  }

  ASSERT_TRUE(write_sharded(path_, t).ok());  // compression on (default)
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  std::uint64_t stored = 0;
  for (const auto& e : reader.value().info().index) {
    stored += e.stored_bytes;
    // Invariant: encoding never inflates a stored shard.
    EXPECT_LE(e.stored_bytes, e.raw_bytes);
  }
  EXPECT_LT(stored, raw_stored);
}

TEST_F(ShardFormatTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cull);
  const std::uint8_t ab[] = {'a', 'b'};
  EXPECT_NE(fnv1a64(ab), fnv1a64(a));
}

TEST_F(ShardFormatTest, BadMagicRejectedAtOpen) {
  const traj::Trajectory t = random_trajectory(8, 4, 1);
  ASSERT_TRUE(write_sharded(path_, t).ok());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  auto reader = ShardReader::open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError);
}

TEST_F(ShardFormatTest, TruncatedFileRejected) {
  const traj::Trajectory t = random_trajectory(16, 8, 2);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Chop the last shard's tail: the index now points past end of file.
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  out.close();
  auto reader = ShardReader::open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError);

  // Chop inside the header itself.
  std::ofstream out2(path_, std::ios::binary | std::ios::trunc);
  out2.write(bytes.data(), 11);
  out2.close();
  auto reader2 = ShardReader::open(path_);
  ASSERT_FALSE(reader2.ok());
  EXPECT_EQ(reader2.error().code(), ErrorCode::kFormatError);
}

TEST_F(ShardFormatTest, BitFlipCaughtByChecksum) {
  const traj::Trajectory t = random_trajectory(16, 8, 3);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  // Flip one bit in the last payload byte; only the owning shard fails.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(-1, std::ios::end);
  char b = 0;
  f.get(b);
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(b ^ 0x40));
  f.close();

  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());  // header and index are intact
  const std::size_t last = reader.value().shard_count() - 1;
  auto corrupt = reader.value().read_shard(last);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code(), ErrorCode::kFormatError);
  // Other shards still decode.
  auto clean = reader.value().read_shard(0);
  ASSERT_TRUE(clean.ok());
}

TEST_F(ShardFormatTest, MissingFileIsAnError) {
  auto reader = ShardReader::open(::testing::TempDir() + "/no-such-store.mds");
  ASSERT_FALSE(reader.ok());
}

TEST_F(ShardFormatTest, OpenRejectsShardsThatDoNotTileTheFrames) {
  // DecodedStore::frames() maps a frame to its shard by
  // frames_per_shard alone, so open() must refuse any header whose
  // shards do not tile exactly ceil(frames / frames_per_shard) shards.
  const traj::Trajectory t = random_trajectory(16, 8, 4);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;  // 4 shards
  auto expect_open_fails = [&](ErrorCode code, const char* what) {
    for (const auto mode : {ShardReader::Mode::kStream,
                            ShardReader::Mode::kMmap}) {
      auto reader = ShardReader::open(path_, mode);
      ASSERT_FALSE(reader.ok()) << what;
      EXPECT_EQ(reader.error().code(), code)
          << what << ": " << reader.error().to_string();
    }
  };

  // Zero frames per shard, shard 0 a valid empty payload: every frame
  // maps to shard 0, and frames(8, 8) would copy past it.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  testutil::zero_frames_per_shard(path_);
  expect_open_fails(ErrorCode::kFormatError, "zero frames per shard");

  // One indexed shard for 16 frames at 4 per shard.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  testutil::set_shard_count(path_, 1);
  expect_open_fails(ErrorCode::kOutOfRange, "one shard");

  // Four indexed shards where 8 frames per shard needs two.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  testutil::set_frames_per_shard(path_, 8);
  expect_open_fails(ErrorCode::kFormatError, "surplus shards");

  // The stores the writer produces still open, an empty one included.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok()) << reader.error().to_string();
  DecodedStore store(std::move(reader).value());
  auto tail = store.frames(8, 8);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().frames(), 8u);
  ASSERT_TRUE(write_sharded(path_, traj::Trajectory(0, 8), opts).ok());
  auto empty = ShardReader::open(path_);
  ASSERT_TRUE(empty.ok()) << empty.error().to_string();
  EXPECT_EQ(empty.value().shard_count(), 0u);
}

TEST_F(ShardFormatTest, OpenRejectsIndexSizesAndOffsetsThatWrap) {
  const traj::Trajectory t = random_trajectory(16, 8, 5);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  auto expect_open_fails = [&](const char* what) {
    for (const auto mode : {ShardReader::Mode::kStream,
                            ShardReader::Mode::kMmap}) {
      auto reader = ShardReader::open(path_, mode);
      ASSERT_FALSE(reader.ok()) << what;
      EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError)
          << what << ": " << reader.error().to_string();
    }
  };

  // 2^61 frames at 1 per shard tile 2^61 shards, whose index size
  // (32 bytes each) wraps to 0.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  std::vector<char> bytes = testutil::read_store(path_);
  testutil::put_u64(bytes, testutil::kFramesAt, 1ull << 61);
  testutil::put_u64(bytes, testutil::kFramesPerShardAt, 1);
  testutil::put_u64(bytes, testutil::kShardCountAt, 1ull << 61);
  testutil::write_store(path_, bytes);
  expect_open_fails("wrapping index size");

  // Shard 0's offset + stored bytes wraps past 2^64 back into the file.
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  bytes = testutil::read_store(path_);
  ShardIndexEntry first;
  std::memcpy(&first, bytes.data() + testutil::kIndexAt, sizeof(first));
  first.offset = ~std::uint64_t{0} - 7;
  first.stored_bytes = 16;
  std::memcpy(bytes.data() + testutil::kIndexAt, &first, sizeof(first));
  testutil::write_store(path_, bytes);
  expect_open_fails("wrapping shard offset");
}

void expect_open_fails_in_both_modes(const std::string& path,
                                     const char* what) {
  for (const auto mode :
       {ShardReader::Mode::kStream, ShardReader::Mode::kMmap}) {
    auto reader = ShardReader::open(path, mode);
    ASSERT_FALSE(reader.ok()) << what;
    EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError)
        << what << ": " << reader.error().to_string();
  }
}

TEST_F(ShardFormatTest, OpenRejectsAtomCountsThatWrap) {
  // A 4-frame, 1-atom store whose header claims 2^62 + 1 atoms: the
  // frame size (atoms x 12 bytes) wraps to 12, so every shard would
  // still match a size check computed from it.
  const traj::Trajectory t = random_trajectory(4, 1, 6);
  for (const bool compress : {true, false}) {
    for (const std::size_t per_shard : {4u, 1u}) {
      ShardStoreOptions opts;
      opts.frames_per_shard = per_shard;
      opts.delta_compress = compress;
      ASSERT_TRUE(write_sharded(path_, t, opts).ok());
      testutil::set_atoms(path_, (1ull << 62) + 1);
      expect_open_fails_in_both_modes(path_, "wrapping atom count");
    }
  }

  // A frame range whose end wraps is out of range, not a huge read.
  ASSERT_TRUE(write_sharded(path_, t).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok()) << reader.error().to_string();
  DecodedStore store(std::move(reader).value());
  auto range = store.frames(1, ~std::size_t{0});
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.error().code(), ErrorCode::kOutOfRange);
}

TEST_F(ShardFormatTest, OpenRejectsRawSizesTheShardCannotHold) {
  // Shard 0 of a 4 x 8 store at 4 frames per shard holds 4 x 8 x 12
  // raw bytes; any other claim is refused before a read sizes a buffer
  // from it.
  const traj::Trajectory t = random_trajectory(16, 8, 7);
  const std::uint64_t shard_bytes = 4 * 8 * sizeof(traj::Vec3);
  for (const bool compress : {true, false}) {
    ShardStoreOptions opts;
    opts.frames_per_shard = 4;
    opts.delta_compress = compress;
    for (const std::uint64_t raw :
         {std::uint64_t{1} << 62, shard_bytes + 12, shard_bytes - 12}) {
      ASSERT_TRUE(write_sharded(path_, t, opts).ok());
      testutil::set_raw_bytes(path_, 0, raw);
      expect_open_fails_in_both_modes(path_, "raw size off the shape");
    }
  }

  // A delta-coded shard decodes to at most 128 bytes per stored byte.
  // Claim 1000 atoms with raw sizes to match: the shape agrees, but the
  // stored bytes cannot expand that far.
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  testutil::set_atoms(path_, 1000);
  for (std::size_t s = 0; s < 4; ++s) {
    testutil::set_raw_bytes(path_, s, 4 * 1000 * sizeof(traj::Vec3));
  }
  expect_open_fails_in_both_modes(path_, "raw size past the codec's reach");
}

}  // namespace
}  // namespace mdtask::stream
