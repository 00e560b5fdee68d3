// Byte-level rewrites of a written .mds store's header and index: the
// bad headers ShardReader::open must reject before any read maps a
// frame to a shard that does not hold it, goes past the file or sizes a
// buffer the file cannot back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mdtask/stream/shard_format.h"

namespace mdtask::testutil {

// Layout (shard_format.h): magic[7] | u8 flags | u64 frames |
// u64 atoms | u64 frames_per_shard | u64 shard_count | index.
inline constexpr std::size_t kFramesAt = 7 + 1;
inline constexpr std::size_t kAtomsAt = kFramesAt + 8;
inline constexpr std::size_t kFramesPerShardAt = kAtomsAt + 8;
inline constexpr std::size_t kShardCountAt = kFramesPerShardAt + 8;
inline constexpr std::size_t kIndexAt = kShardCountAt + 8;

inline std::vector<char> read_store(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

inline void write_store(const std::string& path,
                        const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline void put_u64(std::vector<char>& bytes, std::size_t at,
                    std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// 0 frames per shard, with shard 0 rewritten as a valid empty payload
/// that passes its size and checksum checks: every frame then maps to
/// shard 0, which holds none of them.
inline void zero_frames_per_shard(const std::string& path) {
  std::vector<char> bytes = read_store(path);
  put_u64(bytes, kFramesPerShardAt, 0);
  stream::ShardIndexEntry first;
  std::memcpy(&first, bytes.data() + kIndexAt, sizeof(first));
  first.stored_bytes = 0;
  first.raw_bytes = 0;
  first.checksum = stream::fnv1a64({});
  std::memcpy(bytes.data() + kIndexAt, &first, sizeof(first));
  write_store(path, bytes);
}

/// A shard count of `count`, leaving frames and frames per shard as
/// written.
inline void set_shard_count(const std::string& path, std::uint64_t count) {
  std::vector<char> bytes = read_store(path);
  put_u64(bytes, kShardCountAt, count);
  write_store(path, bytes);
}

/// A frames-per-shard field of `per_shard`, leaving the shard count and
/// index as written.
inline void set_frames_per_shard(const std::string& path,
                                 std::uint64_t per_shard) {
  std::vector<char> bytes = read_store(path);
  put_u64(bytes, kFramesPerShardAt, per_shard);
  write_store(path, bytes);
}

/// An atom count of `atoms`, leaving the index as written.
inline void set_atoms(const std::string& path, std::uint64_t atoms) {
  std::vector<char> bytes = read_store(path);
  put_u64(bytes, kAtomsAt, atoms);
  write_store(path, bytes);
}

/// Shard `shard`'s index entry claiming `raw` decoded bytes, leaving its
/// offset, stored size and checksum as written.
inline void set_raw_bytes(const std::string& path, std::size_t shard,
                          std::uint64_t raw) {
  std::vector<char> bytes = read_store(path);
  put_u64(bytes,
          kIndexAt + shard * sizeof(stream::ShardIndexEntry) +
              offsetof(stream::ShardIndexEntry, raw_bytes),
          raw);
  write_store(path, bytes);
}

}  // namespace mdtask::testutil
