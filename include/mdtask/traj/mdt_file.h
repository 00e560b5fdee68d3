// MDT: a minimal binary trajectory file format.
//
// The paper's pipelines read trajectories from a shared parallel
// filesystem (Lustre); MDT is this repository's on-disk stand-in. Layout:
//   magic "MDTRJ1\n" (7 bytes) | u8 flags | u64 frames | u64 atoms |
//   float32 xyz data, frame-major.
// The format supports partial reads of frame ranges, which the engines use
// for per-task input staging.
#pragma once

#include <cstdint>
#include <string>

#include "mdtask/common/error.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::traj {

/// Writes a trajectory to `path`; overwrites existing files.
Status write_mdt(const std::string& path, const Trajectory& trajectory);

/// Reads a whole trajectory.
Result<Trajectory> read_mdt(const std::string& path);

/// Reads only frames [first, first+count), e.g. one rank's frame block.
/// A header whose frames x atoms x 12 bytes overflow or exceed the
/// file's payload is a kFormatError; a range past the last frame
/// (including one whose end wraps) is kOutOfRange.
Result<Trajectory> read_mdt_frames(const std::string& path,
                                   std::size_t first, std::size_t count);

/// Shape of an MDT file without reading the payload (the header is
/// checked against the payload size as in read_mdt_frames).
struct MdtInfo {
  std::size_t frames = 0;
  std::size_t atoms = 0;
};
Result<MdtInfo> stat_mdt(const std::string& path);

}  // namespace mdtask::traj
