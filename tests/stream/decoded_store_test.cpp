// DecodedStore: the decode-once view of a sharded store that every task
// of one streamed run reads through. Concurrent overlapping ranges must
// decode each shard once and match the store's own read_all bit for
// bit; a corrupt shard must fail typed, keep the run's first error and
// stay undecoded, so the next caller reads it again.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "mdtask/stream/shard_format.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "support/mds_bytes.h"
#include "support/temp_path.h"

namespace mdtask::stream {
namespace {

class DecodedStoreTest : public ::testing::Test {
 protected:
  std::string path_ = testutil::unique_temp_path("mds");
  void TearDown() override { std::remove(path_.c_str()); }

  /// A 61-frame, 7-atom store at 4 frames per shard (16 shards, the
  /// last one short).
  void write_store() {
    traj::ProteinTrajectoryParams p;
    p.frames = 61;
    p.atoms = 7;
    p.seed = 21;
    ShardStoreOptions opts;
    opts.frames_per_shard = 4;
    ASSERT_TRUE(write_sharded(path_, traj::make_protein_trajectory(p), opts)
                    .ok());
  }

  DecodedStore open_store() {
    auto reader = ShardReader::open(path_);
    EXPECT_TRUE(reader.ok()) << reader.error().to_string();
    return DecodedStore(std::move(reader).value());
  }
};

TEST_F(DecodedStoreTest, ConcurrentOverlappingRangesDecodeEachShardOnce) {
  write_store();
  auto whole_reader = ShardReader::open(path_);
  ASSERT_TRUE(whole_reader.ok());
  auto whole = whole_reader.value().read_all();
  ASSERT_TRUE(whole.ok());
  const std::size_t frames = whole.value().frames();
  const std::size_t atoms = whole.value().atoms();

  DecodedStore store = open_store();
  // Every thread walks the whole store in 9-frame ranges from its own
  // offset, so every shard is wanted by several threads at once.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpan = 9;
  std::atomic<bool> go{false};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t first = t; first < frames; first += kSpan - 2) {
        const std::size_t count = std::min(kSpan, frames - first);
        auto range = store.frames(first, count);
        if (!range.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto want =
            whole.value().data().subspan(first * atoms, count * atoms);
        if (range.value().frames() != count ||
            std::memcmp(range.value().data().data(), want.data(),
                        want.size_bytes()) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.reader().shards_fetched(), store.reader().shard_count());
  EXPECT_EQ(store.reader().bytes_read(), whole_reader.value().bytes_read());
  EXPECT_FALSE(store.error().has_value());
}

TEST_F(DecodedStoreTest, CorruptShardFailsTypedAndStaysUndecoded) {
  write_store();
  {
    // One flipped payload byte in shard 5 (frames 20..23).
    auto reader = ShardReader::open(path_);
    ASSERT_TRUE(reader.ok());
    const ShardIndexEntry& victim = reader.value().info().index[5];
    std::vector<char> bytes = testutil::read_store(path_);
    bytes[victim.offset + victim.stored_bytes / 2] ^= 0x5a;
    testutil::write_store(path_, bytes);
  }
  DecodedStore store = open_store();

  auto bad = store.frames(18, 4);  // shards 4 and 5
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kFormatError);
  ASSERT_TRUE(store.error().has_value());
  EXPECT_EQ(store.error()->code(), ErrorCode::kFormatError);
  const std::uint64_t fetched = store.reader().shards_fetched();
  EXPECT_EQ(fetched, 2u);

  // A later failure does not replace the run's first error.
  auto beyond = store.frames(60, 2);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.error().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(store.error()->code(), ErrorCode::kFormatError);

  // The failed shard stayed undecoded: the next caller reads it again,
  // while the verified shard 4 is served from its slot.
  auto again = store.frames(18, 4);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kFormatError);
  EXPECT_EQ(store.reader().shards_fetched(), fetched + 1);
  auto clean = store.frames(16, 4);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(store.reader().shards_fetched(), fetched + 1);
}

}  // namespace
}  // namespace mdtask::stream
