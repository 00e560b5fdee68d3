// Seeded header mutation: overwrite 1-8 random bytes in the header and
// index of a small .mds store, or in the header of a small MDT file,
// then open (or stat) it and read it whole. Every mutant must either
// fail with a typed Error or read back a trajectory whose buffer holds
// exactly frames() x atoms() positions; no exception may escape a
// reader. The seed and the budget are fixed, so a failure names a
// mutant that reproduces, and the run stays short under the sanitizer
// builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "mdtask/common/rng.h"
#include "mdtask/stream/shard_format.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "mdtask/traj/mdt_file.h"
#include "support/mds_bytes.h"
#include "support/temp_path.h"

namespace mdtask {
namespace {

using stream::ShardReader;

constexpr std::uint64_t kSeed = 20180107;
constexpr std::size_t kMutantsPerFormat = 2000;
constexpr std::size_t kMdtHeaderBytes = 7 + 1 + 8 + 8;

traj::Trajectory small_trajectory() {
  traj::ProteinTrajectoryParams p;
  p.frames = 10;
  p.atoms = 3;
  return traj::make_protein_trajectory(p);
}

/// Overwrites 1-8 bytes at random offsets below `span`.
void mutate(std::vector<char>& bytes, std::size_t span,
            Xoshiro256StarStar& rng) {
  const std::uint64_t n = 1 + rng.bounded(8);
  for (std::uint64_t i = 0; i < n; ++i) {
    bytes[rng.bounded(span)] = static_cast<char>(rng.bounded(256));
  }
}

/// Empty when `read` kept the contract, else what it broke.
template <typename Read>
std::string contract_breach(Read&& read) {
  try {
    const Result<traj::Trajectory> r = read();
    if (!r.ok()) return {};
    const traj::Trajectory& t = r.value();
    std::size_t positions = 0;
    if (__builtin_mul_overflow(t.frames(), t.atoms(), &positions) ||
        positions != t.data().size()) {
      return std::to_string(t.frames()) + " x " +
             std::to_string(t.atoms()) + " over " +
             std::to_string(t.data().size()) + " positions";
    }
    return {};
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

class HeaderMutationTest : public ::testing::Test {
 protected:
  std::string path_ = testutil::unique_temp_path("bin");
  void TearDown() override { std::remove(path_.c_str()); }

  /// Records mutant `index`'s breach, if any; the first few are
  /// reported.
  void note(std::size_t index, const std::string& breach) {
    if (breach.empty()) return;
    if (breaches_ < 5) {
      report_ += "\n  mutant " + std::to_string(index) + ": " + breach;
    }
    ++breaches_;
  }

  void expect_no_breach(std::size_t mutants) const {
    EXPECT_EQ(breaches_, 0u)
        << breaches_ << " of " << mutants
        << " mutants broke the reader contract:" << report_;
  }

  std::size_t breaches_ = 0;
  std::string report_;
};

TEST_F(HeaderMutationTest, MdtHeadersFailTypedOrReadConsistently) {
  ASSERT_TRUE(traj::write_mdt(path_, small_trajectory()).ok());
  const std::vector<char> clean = testutil::read_store(path_);
  Xoshiro256StarStar rng(kSeed);
  for (std::size_t i = 0; i < kMutantsPerFormat; ++i) {
    std::vector<char> bytes = clean;
    mutate(bytes, kMdtHeaderBytes, rng);
    testutil::write_store(path_, bytes);
    note(i, contract_breach([&]() -> Result<traj::Trajectory> {
           auto info = traj::stat_mdt(path_);
           if (!info.ok()) return info.error();
           return traj::read_mdt(path_);
         }));
  }
  expect_no_breach(kMutantsPerFormat);
}

TEST_F(HeaderMutationTest, MdsHeadersAndIndexFailTypedOrReadConsistently) {
  // Raw and delta-coded stores of three shards; the mutated span is the
  // header plus the whole index.
  std::vector<char> clean[2];
  for (const bool compress : {false, true}) {
    stream::ShardStoreOptions opts;
    opts.frames_per_shard = 4;
    opts.delta_compress = compress;
    ASSERT_TRUE(
        stream::write_sharded(path_, small_trajectory(), opts).ok());
    clean[compress] = testutil::read_store(path_);
  }
  const std::size_t span =
      testutil::kIndexAt + 3 * sizeof(stream::ShardIndexEntry);
  Xoshiro256StarStar rng(kSeed);
  for (std::size_t i = 0; i < kMutantsPerFormat; ++i) {
    const bool compressed = i % 2 == 1;
    std::vector<char> bytes = clean[compressed];
    mutate(bytes, span, rng);
    testutil::write_store(path_, bytes);
    std::string breach;
    for (const auto mode : {ShardReader::Mode::kStream,
                            ShardReader::Mode::kMmap}) {
      const std::string found =
          contract_breach([&]() -> Result<traj::Trajectory> {
            auto reader = ShardReader::open(path_, mode);
            if (!reader.ok()) return reader.error();
            return reader.value().read_all();
          });
      if (!found.empty() && breach.empty()) {
        breach = std::string(compressed ? "delta-coded" : "raw") + ", " +
                 (mode == ShardReader::Mode::kMmap ? "mmap" : "stream") +
                 ": " + found;
      }
    }
    note(i, breach);
  }
  expect_no_breach(kMutantsPerFormat);
}

}  // namespace
}  // namespace mdtask
