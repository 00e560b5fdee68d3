#include "mdtask/traj/mdt_file.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace mdtask::traj {
namespace {

constexpr char kMagic[7] = {'M', 'D', 'T', 'R', 'J', '1', '\n'};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

struct Header {
  char magic[7];
  std::uint8_t flags;
  std::uint64_t frames;
  std::uint64_t atoms;
};

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 1 + 8 + 8;

/// Reads the header and checks that the payload holds the shape it
/// claims: frames x atoms x 12 bytes must neither overflow nor exceed
/// the bytes after the header, so no reader sizes a buffer from a
/// header the file cannot back.
Result<Header> read_header(std::FILE* f, const std::string& path) {
  Header h{};
  if (std::fread(h.magic, 1, sizeof(h.magic), f) != sizeof(h.magic) ||
      std::fread(&h.flags, 1, 1, f) != 1 ||
      std::fread(&h.frames, sizeof(h.frames), 1, f) != 1 ||
      std::fread(&h.atoms, sizeof(h.atoms), 1, f) != 1) {
    return Error(ErrorCode::kFormatError, "truncated MDT header: " + path);
  }
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Error(ErrorCode::kFormatError, "bad MDT magic: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Error(ErrorCode::kIoError, "seek failed: " + path);
  }
  const long file_end = std::ftell(f);
  if (file_end < static_cast<long>(kHeaderBytes)) {
    return Error(ErrorCode::kIoError, "cannot size: " + path);
  }
  const auto payload = static_cast<std::uint64_t>(file_end) - kHeaderBytes;
  std::uint64_t bytes = 0;
  if (__builtin_mul_overflow(h.frames, h.atoms, &bytes) ||
      __builtin_mul_overflow(bytes, std::uint64_t{sizeof(Vec3)}, &bytes) ||
      bytes > payload) {
    return Error(ErrorCode::kFormatError,
                 "MDT header claims " + std::to_string(h.frames) +
                     " frames x " + std::to_string(h.atoms) +
                     " atoms, more than its " + std::to_string(payload) +
                     " payload bytes: " + path);
  }
  return h;
}

}  // namespace

Status write_mdt(const std::string& path, const Trajectory& trajectory) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    return Error(ErrorCode::kIoError, "cannot open for write: " + path);
  }
  const std::uint8_t flags = 0;
  const std::uint64_t frames = trajectory.frames();
  const std::uint64_t atoms = trajectory.atoms();
  if (std::fwrite(kMagic, 1, sizeof(kMagic), f.get()) != sizeof(kMagic) ||
      std::fwrite(&flags, 1, 1, f.get()) != 1 ||
      std::fwrite(&frames, sizeof(frames), 1, f.get()) != 1 ||
      std::fwrite(&atoms, sizeof(atoms), 1, f.get()) != 1) {
    return Error(ErrorCode::kIoError, "short header write: " + path);
  }
  const auto data = trajectory.data();
  if (!data.empty() &&
      std::fwrite(data.data(), sizeof(Vec3), data.size(), f.get()) !=
          data.size()) {
    return Error(ErrorCode::kIoError, "short data write: " + path);
  }
  return Status::success();
}

Result<Trajectory> read_mdt(const std::string& path) {
  auto info = stat_mdt(path);
  if (!info.ok()) return info.error();
  return read_mdt_frames(path, 0, info.value().frames);
}

Result<Trajectory> read_mdt_frames(const std::string& path,
                                   std::size_t first, std::size_t count) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Error(ErrorCode::kIoError, "cannot open: " + path);
  auto h = read_header(f.get(), path);
  if (!h.ok()) return h.error();
  const auto& hdr = h.value();
  if (count > hdr.frames || first > hdr.frames - count) {
    return Error(ErrorCode::kOutOfRange,
                 "frame range beyond trajectory: " + path);
  }
  Trajectory out(count, static_cast<std::size_t>(hdr.atoms));
  const auto offset =
      static_cast<long>(kHeaderBytes + first * hdr.atoms * sizeof(Vec3));
  if (std::fseek(f.get(), offset, SEEK_SET) != 0) {
    return Error(ErrorCode::kIoError, "seek failed: " + path);
  }
  auto data = out.data();
  if (!data.empty() &&
      std::fread(data.data(), sizeof(Vec3), data.size(), f.get()) !=
          data.size()) {
    return Error(ErrorCode::kFormatError, "truncated MDT payload: " + path);
  }
  return out;
}

Result<MdtInfo> stat_mdt(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Error(ErrorCode::kIoError, "cannot open: " + path);
  auto h = read_header(f.get(), path);
  if (!h.ok()) return h.error();
  return MdtInfo{static_cast<std::size_t>(h.value().frames),
                 static_cast<std::size_t>(h.value().atoms)};
}

}  // namespace mdtask::traj
