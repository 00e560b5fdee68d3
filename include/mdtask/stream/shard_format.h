// MDS: the sharded out-of-core trajectory store.
//
// A chunked extension of the MDT format (traj/mdt_file.h) for
// trajectories that must not be materialized whole: frames are grouped
// into fixed-size shards, each independently decodable, checksummed and
// optionally delta-compressed. Layout:
//
//   magic "MDTSH1\n" (7 bytes) | u8 flags | u64 frames | u64 atoms |
//   u64 frames_per_shard | u64 shard_count |
//   shard_count x ShardIndexEntry | shard payloads
//
// The index makes any shard addressable with one seek; the per-shard
// FNV-1a checksum covers the *stored* bytes so corruption is detected
// before decompression; the codec (XOR-delta between consecutive frames
// followed by zero run-length encoding) is lossless, which is what lets
// streamed analysis runs reproduce in-memory figure CSVs byte for byte.
// A point cloud (the Leaflet Finder's membrane) is stored as a
// trajectory of shape [n_points x 1], so a shard is an atom range and
// the same reader serves both workloads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/common/hash.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::stream {

inline constexpr char kShardMagic[7] = {'M', 'D', 'T', 'S', 'H', '1', '\n'};

/// Flag bit: shard payloads are XOR-delta + zero-RLE encoded. A shard
/// whose encoding would not shrink it is stored raw (recognizable by
/// stored_bytes == raw_bytes), so decoding never inflates.
inline constexpr std::uint8_t kFlagDeltaCompressed = 0x01;

/// One shard's location and integrity record in the file index.
struct ShardIndexEntry {
  std::uint64_t offset = 0;        ///< payload offset from file start
  std::uint64_t stored_bytes = 0;  ///< bytes on disk (encoded or raw)
  std::uint64_t raw_bytes = 0;     ///< decoded payload size
  std::uint64_t checksum = 0;      ///< FNV-1a 64 over the stored bytes
};

/// Header + index of a sharded store (everything but the payloads).
struct ShardStoreInfo {
  std::size_t frames = 0;
  std::size_t atoms = 0;
  std::size_t frames_per_shard = 0;
  std::uint8_t flags = 0;
  std::vector<ShardIndexEntry> index;

  std::size_t shard_count() const noexcept { return index.size(); }
  bool compressed() const noexcept {
    return (flags & kFlagDeltaCompressed) != 0;
  }
  /// First frame of shard `s`.
  std::size_t shard_first_frame(std::size_t s) const noexcept {
    return s * frames_per_shard;
  }
  /// Frame count of shard `s` (the last shard may be short).
  std::size_t shard_frames(std::size_t s) const noexcept {
    const std::size_t first = shard_first_frame(s);
    return first >= frames ? 0
                           : std::min(frames_per_shard, frames - first);
  }
  /// Shard index owning frame `f`.
  std::size_t shard_of_frame(std::size_t f) const noexcept {
    return frames_per_shard == 0 ? 0 : f / frames_per_shard;
  }
};

/// Writer knobs. The defaults favour streaming: shards small enough to
/// double-buffer, compression on (smooth MD trajectories XOR-delta to
/// byte streams dense in zeros).
struct ShardStoreOptions {
  std::size_t frames_per_shard = 64;
  bool delta_compress = true;
};

/// FNV-1a 64-bit over a byte span (the shard integrity hash). The
/// implementation is the shared helper in mdtask/common/hash.h; this
/// alias keeps the historical stream-local spelling working.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  return ::mdtask::fnv1a64(bytes);
}

/// XOR-delta (per `frame_bytes` stride, first frame against zeros),
/// byte-plane shuffle (plane k collects byte k of each 8-byte double so
/// the XOR-zeroed exponent bytes form long runs), then zero-RLE.
/// Control byte: high bit set = literal run of (n & 0x7f) + 1 bytes
/// follow; clear = run of n + 1 zero bytes.
std::vector<std::uint8_t> delta_encode(std::span<const std::uint8_t> raw,
                                       std::size_t frame_bytes);

/// Inverse of delta_encode, decoding straight into `raw` with no scratch
/// buffer: the zero-RLE pass writes each byte to its unshuffled place,
/// then the XOR-delta is undone in place. Fails on malformed streams or
/// when the decoded size does not equal raw.size(); `raw` is then
/// unspecified.
Status delta_decode_into(std::span<const std::uint8_t> encoded,
                         std::size_t frame_bytes,
                         std::span<std::uint8_t> raw);

/// Writes `trajectory` to `path` as a sharded store; overwrites.
Status write_sharded(const std::string& path,
                     const traj::Trajectory& trajectory,
                     const ShardStoreOptions& options = {});

/// Writes a point cloud as a [points.size() x 1] sharded store, so the
/// Leaflet Finder can stream atom ranges shard-at-a-time.
Status write_sharded_points(const std::string& path,
                            std::span<const traj::Vec3> points,
                            const ShardStoreOptions& options = {});

}  // namespace mdtask::stream
