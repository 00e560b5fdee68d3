#include "mdtask/stream/shard_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mdtask::stream {
namespace {

constexpr std::size_t kHeaderBytes = sizeof(kShardMagic) + 1 + 4 * 8;

/// The most one zero-RLE control byte decodes to (shard_format.h): a
/// run of 128 zeros or 128 literal bytes. A delta-coded shard cannot
/// decode to more than this many times its stored bytes.
constexpr std::uint64_t kMaxExpansion = 128;

/// Full positional read; retries on short pread (signals, page cache).
bool pread_exact(int fd, void* dst, std::size_t len, std::uint64_t offset) {
  auto* out = static_cast<std::uint8_t*>(dst);
  while (len > 0) {
    const ssize_t n = ::pread(fd, out, len, static_cast<off_t>(offset));
    if (n <= 0) return false;
    out += n;
    offset += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Result<ShardReader> ShardReader::open(const std::string& path, Mode mode) {
  ShardReader reader;
  reader.path_ = path;
  reader.fd_ = ::open(path.c_str(), O_RDONLY);
  if (reader.fd_ < 0) {
    return Error(ErrorCode::kIoError, "cannot open: " + path);
  }
  struct stat st{};
  if (::fstat(reader.fd_, &st) != 0 || st.st_size < 0) {
    return Error(ErrorCode::kIoError, "cannot stat: " + path);
  }
  reader.file_bytes_ = static_cast<std::size_t>(st.st_size);

  std::uint8_t header[kHeaderBytes];
  if (reader.file_bytes_ < kHeaderBytes ||
      !pread_exact(reader.fd_, header, kHeaderBytes, 0)) {
    return Error(ErrorCode::kFormatError,
                 "truncated shard-store header: " + path);
  }
  if (std::memcmp(header, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Error(ErrorCode::kFormatError,
                 "bad shard-store magic: " + path);
  }
  reader.info_.flags = header[sizeof(kShardMagic)];
  std::uint64_t fields[4];
  std::memcpy(fields, header + sizeof(kShardMagic) + 1, sizeof(fields));
  reader.info_.frames = static_cast<std::size_t>(fields[0]);
  reader.info_.atoms = static_cast<std::size_t>(fields[1]);
  reader.info_.frames_per_shard = static_cast<std::size_t>(fields[2]);
  const auto shard_count = static_cast<std::size_t>(fields[3]);
  // The shards must tile the frames exactly: read_frames() maps a frame
  // to its shard by frames_per_shard alone.
  const std::size_t frames = reader.info_.frames;
  const std::size_t per_shard = reader.info_.frames_per_shard;
  if (frames > 0 && per_shard == 0) {
    return Error(ErrorCode::kFormatError,
                 "zero frames per shard for a non-empty store: " + path);
  }
  const std::size_t expected_shards =
      frames == 0 ? 0 : frames / per_shard + (frames % per_shard != 0);
  if (shard_count < expected_shards) {
    return Error(ErrorCode::kOutOfRange,
                 std::to_string(shard_count) + " shards cannot hold " +
                     std::to_string(frames) + " frames at " +
                     std::to_string(per_shard) + " per shard: " + path);
  }
  if (shard_count != expected_shards) {
    return Error(ErrorCode::kFormatError,
                 std::to_string(shard_count) + " shards for " +
                     std::to_string(frames) + " frames at " +
                     std::to_string(per_shard) + " per shard: " + path);
  }

  // Compare by division: a huge count must not wrap the index size.
  if (shard_count >
      (reader.file_bytes_ - kHeaderBytes) / sizeof(ShardIndexEntry)) {
    return Error(ErrorCode::kFormatError,
                 "truncated shard index: " + path);
  }
  // Every decoded size is a product of frames and atoms; none may wrap.
  std::uint64_t frame_bytes = 0;
  std::uint64_t store_bytes = 0;
  if (__builtin_mul_overflow(fields[1], std::uint64_t{sizeof(traj::Vec3)},
                             &frame_bytes) ||
      __builtin_mul_overflow(fields[0], frame_bytes, &store_bytes)) {
    return Error(ErrorCode::kFormatError,
                 std::to_string(fields[0]) + " frames x " +
                     std::to_string(fields[1]) +
                     " atoms overflow the store size: " + path);
  }
  const std::size_t index_bytes = shard_count * sizeof(ShardIndexEntry);
  reader.info_.index.resize(shard_count);
  if (index_bytes > 0 &&
      !pread_exact(reader.fd_, reader.info_.index.data(), index_bytes,
                   kHeaderBytes)) {
    return Error(ErrorCode::kIoError, "cannot read shard index: " + path);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const ShardIndexEntry& entry = reader.info_.index[s];
    if (entry.offset > reader.file_bytes_ ||
        entry.stored_bytes > reader.file_bytes_ - entry.offset) {
      return Error(ErrorCode::kFormatError,
                   "shard index points past end of file: " + path);
    }
    // shard_frames(s) <= frames, so this product cannot wrap either.
    const std::uint64_t shard_bytes =
        reader.info_.shard_frames(s) * frame_bytes;
    if (entry.raw_bytes != shard_bytes) {
      return Error(ErrorCode::kFormatError,
                   "shard " + std::to_string(s) + " claims " +
                       std::to_string(entry.raw_bytes) +
                       " raw bytes, not its shape's " +
                       std::to_string(shard_bytes) + ": " + path);
    }
    const bool delta_coded = reader.info_.compressed() &&
                             entry.stored_bytes != entry.raw_bytes;
    if (delta_coded && entry.raw_bytes / kMaxExpansion +
                               (entry.raw_bytes % kMaxExpansion != 0) >
                           entry.stored_bytes) {
      return Error(ErrorCode::kFormatError,
                   "shard " + std::to_string(s) + " claims " +
                       std::to_string(entry.raw_bytes) +
                       " raw bytes from " +
                       std::to_string(entry.stored_bytes) +
                       " delta-coded bytes: " + path);
    }
  }

  if (mode == Mode::kMmap && reader.file_bytes_ > 0) {
    void* map = ::mmap(nullptr, reader.file_bytes_, PROT_READ, MAP_PRIVATE,
                       reader.fd_, 0);
    if (map == MAP_FAILED) {
      return Error(ErrorCode::kIoError,
                   "mmap failed (" + std::string(std::strerror(errno)) +
                       "): " + path);
    }
    reader.map_ = static_cast<const std::uint8_t*>(map);
  }
  return reader;
}

ShardReader& ShardReader::operator=(ShardReader&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
    map_ = other.map_;
    other.map_ = nullptr;
    file_bytes_ = other.file_bytes_;
    info_ = std::move(other.info_);
    bytes_read_.store(other.bytes_read_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    shards_fetched_.store(
        other.shards_fetched_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    tracer_ = other.tracer_;
    io_track_ = other.io_track_;
  }
  return *this;
}

ShardReader::~ShardReader() { close(); }

void ShardReader::close() noexcept {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), file_bytes_);
    map_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ShardReader::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    io_track_ = tracer_->named_thread(tracer_->process("io"), "reader");
  }
}

Result<traj::Trajectory> ShardReader::read_shard(std::size_t s) const {
  if (s >= info_.shard_count()) {
    return Error(ErrorCode::kOutOfRange,
                 "shard index out of range: " + path_);
  }
  const ShardIndexEntry& entry = info_.index[s];
  const double start_us = tracer_ != nullptr ? tracer_->now_us() : 0.0;

  std::vector<std::uint8_t> stored(entry.stored_bytes);
  if (map_ != nullptr) {
    std::memcpy(stored.data(), map_ + entry.offset, entry.stored_bytes);
  } else if (!stored.empty() &&
             !pread_exact(fd_, stored.data(), stored.size(),
                          entry.offset)) {
    return Error(ErrorCode::kFormatError,
                 "truncated shard payload: " + path_);
  }
  bytes_read_.fetch_add(entry.stored_bytes, std::memory_order_relaxed);
  shards_fetched_.fetch_add(1, std::memory_order_relaxed);

  if (fnv1a64(stored) != entry.checksum) {
    return Error(ErrorCode::kFormatError,
                 "shard " + std::to_string(s) +
                     " checksum mismatch: " + path_);
  }

  const std::size_t frame_bytes = info_.atoms * sizeof(traj::Vec3);
  std::vector<std::uint8_t> raw;
  if (info_.compressed() && entry.stored_bytes != entry.raw_bytes) {
    auto decoded = delta_decode(stored, frame_bytes,
                                static_cast<std::size_t>(entry.raw_bytes));
    if (!decoded.ok()) return decoded.error();
    raw = std::move(decoded).value();
  } else {
    raw = std::move(stored);
  }
  if (raw.size() != info_.shard_frames(s) * frame_bytes) {
    return Error(ErrorCode::kFormatError,
                 "shard " + std::to_string(s) + " size mismatch: " + path_);
  }

  traj::Trajectory out(info_.shard_frames(s), info_.atoms);
  if (!raw.empty()) {
    std::memcpy(out.data().data(), raw.data(), raw.size());
  }
  if (tracer_ != nullptr) {
    trace::Args args;
    args.emplace_back("shard", std::to_string(s));
    args.emplace_back("stored_bytes", std::to_string(entry.stored_bytes));
    args.emplace_back("raw_bytes", std::to_string(entry.raw_bytes));
    tracer_->complete(io_track_, "io:read-shard", "io", start_us,
                      tracer_->now_us() - start_us, std::move(args));
  }
  return out;
}

Result<traj::Trajectory> ShardReader::read_frames(std::size_t first,
                                                  std::size_t count) const {
  if (count > info_.frames || first > info_.frames - count) {
    return Error(ErrorCode::kOutOfRange,
                 "frame range beyond store: " + path_);
  }
  traj::Trajectory out(count, info_.atoms);
  if (count == 0) return out;
  const std::size_t frame_bytes = info_.atoms * sizeof(traj::Vec3);
  auto* dst = reinterpret_cast<std::uint8_t*>(out.data().data());
  std::size_t s = info_.shard_of_frame(first);
  std::size_t written = 0;
  while (written < count) {
    auto shard = read_shard(s);
    if (!shard.ok()) return shard.error();
    const std::size_t shard_first = info_.shard_first_frame(s);
    const std::size_t skip = first + written - shard_first;
    const std::size_t take =
        std::min(shard.value().frames() - skip, count - written);
    std::memcpy(dst + written * frame_bytes,
                reinterpret_cast<const std::uint8_t*>(
                    shard.value().data().data()) +
                    skip * frame_bytes,
                take * frame_bytes);
    written += take;
    ++s;
  }
  return out;
}

}  // namespace mdtask::stream
