#include "mdtask/stream/shard_format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace mdtask::stream {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Bytes of the fixed header preceding the index.
constexpr std::size_t kHeaderBytes = sizeof(kShardMagic) + 1 + 4 * 8;

bool write_u64(std::FILE* f, std::uint64_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

}  // namespace

std::vector<std::uint8_t> delta_encode(std::span<const std::uint8_t> raw,
                                       std::size_t frame_bytes) {
  // Pass 1: XOR each frame's bytes with the previous frame's (the first
  // frame against zeros). Consecutive MD frames differ by small
  // coordinate deltas, so high-order mantissa and exponent bytes cancel
  // to zero and the RLE pass below collapses them.
  std::vector<std::uint8_t> delta(raw.begin(), raw.end());
  if (frame_bytes > 0) {
    for (std::size_t i = delta.size(); i-- > frame_bytes;) {
      delta[i] ^= raw[i - frame_bytes];
    }
  }
  // Pass 2: byte-plane shuffle. The XOR pass zeroes the sign/exponent
  // and high-mantissa bytes of each little-endian double — 2-3 isolated
  // zero bytes per 8, too scattered for run-length coding. Transposing
  // so plane k holds byte k of every double gathers them into
  // shard-length runs (the Blosc shuffle filter). A sub-8 tail (never
  // hit by Vec3 payloads) is carried through unshuffled.
  {
    const std::size_t groups = delta.size() / 8;
    std::vector<std::uint8_t> shuffled(delta.size());
    for (std::size_t p = 0; p < 8; ++p) {
      for (std::size_t g = 0; g < groups; ++g) {
        shuffled[p * groups + g] = delta[g * 8 + p];
      }
    }
    std::copy(delta.begin() + static_cast<std::ptrdiff_t>(groups * 8),
              delta.end(),
              shuffled.begin() + static_cast<std::ptrdiff_t>(groups * 8));
    delta = std::move(shuffled);
  }
  // Pass 3: zero run-length encoding.
  std::vector<std::uint8_t> out;
  out.reserve(delta.size() / 2 + 16);
  std::size_t i = 0;
  while (i < delta.size()) {
    if (delta[i] == 0) {
      std::size_t run = 1;
      while (i + run < delta.size() && delta[i + run] == 0 && run < 128) {
        ++run;
      }
      out.push_back(static_cast<std::uint8_t>(run - 1));
      i += run;
    } else {
      std::size_t run = 1;
      while (i + run < delta.size() && delta[i + run] != 0 && run < 128) {
        ++run;
      }
      out.push_back(static_cast<std::uint8_t>(0x80 | (run - 1)));
      out.insert(out.end(), delta.begin() + static_cast<std::ptrdiff_t>(i),
                 delta.begin() + static_cast<std::ptrdiff_t>(i + run));
      i += run;
    }
  }
  return out;
}

Status delta_decode_into(std::span<const std::uint8_t> encoded,
                         std::size_t frame_bytes,
                         std::span<std::uint8_t> raw) {
  // Pass 1: zero-RLE straight into the unshuffled layout. Byte n of the
  // shuffled stream, n < 8 * groups, is byte n / groups of 8-byte group
  // n % groups; the sub-8 tail is stored in place. Zero runs only
  // advance over the zero-filled output.
  std::fill(raw.begin(), raw.end(), std::uint8_t{0});
  const std::size_t groups = raw.size() / 8;
  const std::size_t plane_bytes = groups * 8;
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < encoded.size()) {
    const std::uint8_t control = encoded[i++];
    const std::size_t run = static_cast<std::size_t>(control & 0x7f) + 1;
    const bool literal = (control & 0x80) != 0;
    if (literal && run > encoded.size() - i) {
      return Error(ErrorCode::kFormatError,
                   "shard codec: literal run past end of stream");
    }
    if (run > raw.size() - n) {
      return Error(ErrorCode::kFormatError,
                   "shard codec: decoded size exceeds raw_bytes");
    }
    if (literal) {
      const std::size_t end = n + run;
      std::size_t k = n;
      if (k < plane_bytes) {
        std::size_t plane = k / groups;
        std::size_t group = k % groups;
        for (; k < end && k < plane_bytes; ++k) {
          raw[group * 8 + plane] = encoded[i++];
          if (++group == groups) {
            group = 0;
            ++plane;
          }
        }
      }
      for (; k < end; ++k) raw[k] = encoded[i++];
    }
    n += run;
  }
  if (n != raw.size()) {
    return Error(ErrorCode::kFormatError,
                 "shard codec: decoded size mismatch");
  }
  // Pass 2: undo the XOR-delta in place, front to back.
  if (frame_bytes > 0) {
    for (std::size_t j = frame_bytes; j < raw.size(); ++j) {
      raw[j] ^= raw[j - frame_bytes];
    }
  }
  return Status::success();
}

Status write_sharded(const std::string& path,
                     const traj::Trajectory& trajectory,
                     const ShardStoreOptions& options) {
  if (options.frames_per_shard == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "frames_per_shard must be > 0");
  }
  const std::size_t frames = trajectory.frames();
  const std::size_t atoms = trajectory.atoms();
  const std::size_t frame_bytes = atoms * sizeof(traj::Vec3);
  const std::size_t shard_count =
      frames == 0 ? 0
                  : (frames + options.frames_per_shard - 1) /
                        options.frames_per_shard;

  // Encode every shard first so the index can be written up front.
  const auto* base =
      reinterpret_cast<const std::uint8_t*>(trajectory.data().data());
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<ShardIndexEntry> index(shard_count);
  payloads.reserve(shard_count);
  std::uint64_t offset =
      kHeaderBytes + shard_count * sizeof(ShardIndexEntry);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t first = s * options.frames_per_shard;
    const std::size_t count =
        std::min(options.frames_per_shard, frames - first);
    const std::span<const std::uint8_t> raw(base + first * frame_bytes,
                                            count * frame_bytes);
    std::vector<std::uint8_t> stored;
    if (options.delta_compress) {
      stored = delta_encode(raw, frame_bytes);
      // An incompressible shard is stored raw; stored_bytes == raw_bytes
      // is the reader's signal that no decode pass is needed.
      if (stored.size() >= raw.size()) {
        stored.assign(raw.begin(), raw.end());
      }
    } else {
      stored.assign(raw.begin(), raw.end());
    }
    index[s].offset = offset;
    index[s].stored_bytes = stored.size();
    index[s].raw_bytes = raw.size();
    index[s].checksum = fnv1a64(stored);
    offset += stored.size();
    payloads.push_back(std::move(stored));
  }

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    return Error(ErrorCode::kIoError, "cannot open for write: " + path);
  }
  const std::uint8_t flags =
      options.delta_compress ? kFlagDeltaCompressed : std::uint8_t{0};
  if (std::fwrite(kShardMagic, 1, sizeof(kShardMagic), f.get()) !=
          sizeof(kShardMagic) ||
      std::fwrite(&flags, 1, 1, f.get()) != 1 ||
      !write_u64(f.get(), frames) || !write_u64(f.get(), atoms) ||
      !write_u64(f.get(), options.frames_per_shard) ||
      !write_u64(f.get(), shard_count)) {
    return Error(ErrorCode::kIoError, "short header write: " + path);
  }
  if (!index.empty() &&
      std::fwrite(index.data(), sizeof(ShardIndexEntry), index.size(),
                  f.get()) != index.size()) {
    return Error(ErrorCode::kIoError, "short index write: " + path);
  }
  for (const auto& payload : payloads) {
    if (!payload.empty() &&
        std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
            payload.size()) {
      return Error(ErrorCode::kIoError, "short shard write: " + path);
    }
  }
  return Status::success();
}

Status write_sharded_points(const std::string& path,
                            std::span<const traj::Vec3> points,
                            const ShardStoreOptions& options) {
  traj::Trajectory as_frames(points.size(), 1);
  std::copy(points.begin(), points.end(), as_frames.data().begin());
  return write_sharded(path, as_frames, options);
}

}  // namespace mdtask::stream
