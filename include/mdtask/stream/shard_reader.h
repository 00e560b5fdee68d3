// ShardReader: random access into a sharded store without materializing
// the trajectory.
//
// open() parses only the header and index; each read_shard() call pulls
// one shard's stored bytes (pread in kStream mode, memcpy from the
// mapping in kMmap mode), verifies its checksum and decodes it. All read
// methods are const and touch no shared mutable state beyond atomic
// counters, so engine worker threads may read concurrently from one
// reader. With a tracer attached, every shard read is recorded as an
// "io:read-shard" complete event with byte and latency args.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "mdtask/common/error.h"
#include "mdtask/stream/shard_format.h"
#include "mdtask/trace/tracer.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::stream {

class ShardReader {
 public:
  enum class Mode {
    kStream,  ///< positional reads (pread); nothing mapped
    kMmap,    ///< whole file mapped read-only; reads are memcpys
  };

  /// Opens `path`, parsing header + index. Fails on bad magic, a
  /// truncated header/index, an index that points past end of file, or
  /// a header whose shards do not tile its frames: 0 frames per shard
  /// for a non-empty store, or a shard count other than
  /// ceil(frames / frames_per_shard) (kOutOfRange when too few shards
  /// are indexed, kFormatError otherwise). Also kFormatError: a shape
  /// whose frames x atoms x 12 bytes overflow, an entry whose raw_bytes
  /// is not its shard's frames x atoms x 12, and a delta-coded entry
  /// claiming more than 128 x its stored bytes (the codec's largest
  /// expansion). Every buffer a read sizes is then backed by the file.
  static Result<ShardReader> open(const std::string& path,
                                  Mode mode = Mode::kStream);

  ShardReader(ShardReader&& other) noexcept { *this = std::move(other); }
  ShardReader& operator=(ShardReader&& other) noexcept;
  ShardReader(const ShardReader&) = delete;
  ShardReader& operator=(const ShardReader&) = delete;
  ~ShardReader();

  const ShardStoreInfo& info() const noexcept { return info_; }
  const std::string& path() const noexcept { return path_; }
  std::size_t frames() const noexcept { return info_.frames; }
  std::size_t atoms() const noexcept { return info_.atoms; }
  std::size_t shard_count() const noexcept { return info_.shard_count(); }

  /// {first frame, frame count} of shard `s`.
  std::pair<std::size_t, std::size_t> shard_range(std::size_t s) const {
    return {info_.shard_first_frame(s), info_.shard_frames(s)};
  }

  /// Reads, verifies and decodes one shard into a [frames x atoms]
  /// trajectory. Checksum mismatches and short reads are kFormatError.
  Result<traj::Trajectory> read_shard(std::size_t s) const;

  /// Reads an arbitrary frame range, touching only the shards that
  /// overlap it. A range past the last frame (including one whose end
  /// wraps) is kOutOfRange.
  Result<traj::Trajectory> read_frames(std::size_t first,
                                       std::size_t count) const;

  /// Reads the whole trajectory (the in-memory fallback path).
  Result<traj::Trajectory> read_all() const {
    return read_frames(0, info_.frames);
  }

  /// Stored payload bytes fetched so far (I/O volume, not decoded size).
  std::uint64_t bytes_read() const noexcept {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  std::uint64_t shards_fetched() const noexcept {
    return shards_fetched_.load(std::memory_order_relaxed);
  }

  /// Mirrors every shard read into `tracer` as an "io:read-shard" event
  /// on the "io" process track. Call before handing the reader to
  /// worker threads; pass nullptr to stop.
  void set_tracer(trace::Tracer* tracer);

 private:
  ShardReader() = default;
  void close() noexcept;

  std::string path_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;  ///< kMmap only
  std::size_t file_bytes_ = 0;
  ShardStoreInfo info_;
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  mutable std::atomic<std::uint64_t> shards_fetched_{0};
  trace::Tracer* tracer_ = nullptr;
  trace::Track io_track_{};
};

}  // namespace mdtask::stream
