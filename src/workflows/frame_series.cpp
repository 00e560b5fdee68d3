#include "mdtask/workflows/frame_series.h"

#include <algorithm>

#include "mdtask/common/serial.h"
#include "mdtask/common/timer.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"

namespace mdtask::workflows {
namespace {

struct FrameBlock {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct BlockValues {
  std::size_t begin = 0;
  std::vector<double> values;
};

std::vector<FrameBlock> plan(std::size_t frames,
                             const FrameSeriesConfig& config) {
  std::size_t block = config.frame_block;
  if (block == 0) {
    block = std::max<std::size_t>(
        1, frames / std::max<std::size_t>(1, config.workers));
  }
  std::vector<FrameBlock> blocks;
  for (std::size_t b = 0; b < frames; b += block) {
    blocks.push_back({b, std::min(b + block, frames)});
  }
  return blocks;
}

BlockValues evaluate(const traj::Trajectory& trajectory,
                     const FrameObservable& observable,
                     const FrameBlock& block) {
  BlockValues out;
  out.begin = block.begin;
  out.values.reserve(block.end - block.begin);
  for (std::size_t f = block.begin; f < block.end; ++f) {
    out.values.push_back(observable(trajectory.frame(f)));
  }
  return out;
}

void place(std::vector<double>& series, const BlockValues& block) {
  std::copy(block.values.begin(), block.values.end(),
            series.begin() + static_cast<std::ptrdiff_t>(block.begin));
}

}  // namespace

FrameSeriesResult run_frame_series(EngineKind engine,
                                   const traj::Trajectory& trajectory,
                                   const FrameObservable& observable,
                                   const FrameSeriesConfig& config) {
  FrameSeriesResult result;
  result.series.assign(trajectory.frames(), 0.0);
  if (trajectory.frames() == 0) return result;
  const auto blocks = plan(trajectory.frames(), config);
  // Default infrastructure: no tracer and no faults.
  const EngineOptions options{.workers = config.workers};
  WallTimer timer;

  switch (engine) {
    case EngineKind::kMpi: {
      run_mpi_job(
          options, static_cast<int>(std::max<std::size_t>(1, config.workers)),
          [&](mpi::Communicator& comm, fault::CheckpointStore&) {
            std::vector<double> mine;
            std::vector<std::uint64_t> offsets;
            for (std::size_t b = static_cast<std::size_t>(comm.rank());
                 b < blocks.size();
                 b += static_cast<std::size_t>(comm.size())) {
              auto block = evaluate(trajectory, observable, blocks[b]);
              offsets.push_back(block.begin);
              offsets.push_back(block.values.size());
              mine.insert(mine.end(), block.values.begin(),
                          block.values.end());
            }
            auto all_offsets = comm.gather<std::uint64_t>(offsets, 0);
            auto all_values = comm.gather<double>(mine, 0);
            if (comm.rank() == 0) {
              for (std::size_t r = 0; r < all_offsets.size(); ++r) {
                std::size_t cursor = 0;
                for (std::size_t k = 0; k + 1 < all_offsets[r].size();
                     k += 2) {
                  BlockValues block;
                  block.begin =
                      static_cast<std::size_t>(all_offsets[r][k]);
                  const auto count =
                      static_cast<std::size_t>(all_offsets[r][k + 1]);
                  block.values.assign(
                      all_values[r].begin() +
                          static_cast<std::ptrdiff_t>(cursor),
                      all_values[r].begin() +
                          static_cast<std::ptrdiff_t>(cursor + count));
                  cursor += count;
                  place(result.series, block);
                }
              }
            }
          });
      break;
    }
    case EngineKind::kSpark: {
      SparkSession session(options);
      spark::SparkContext& sc = session.engine();
      auto computed =
          sc.parallelize(blocks, blocks.size())
              .map_partitions([&trajectory, &observable](
                                  spark::TaskContext&,
                                  std::vector<FrameBlock>& mine) {
                std::vector<BlockValues> out;
                for (const auto& block : mine) {
                  out.push_back(evaluate(trajectory, observable, block));
                }
                return out;
              })
              .collect();
      for (const auto& block : computed) place(result.series, block);
      result.metrics = session.metrics();
      break;
    }
    case EngineKind::kDask: {
      DaskSession session(options);
      dask::DaskClient& client = session.engine();
      std::vector<dask::Future<BlockValues>> futures;
      for (const auto& block : blocks) {
        futures.push_back(client.submit([&trajectory, &observable, block] {
          return evaluate(trajectory, observable, block);
        }));
      }
      for (const auto& f : futures) place(result.series, f.get());
      result.metrics = session.metrics();
      break;
    }
    case EngineKind::kRp: {
      RpSession session(options);
      rp::UnitManager& um = session.engine();
      std::vector<rp::ComputeUnitDescription> descriptions;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::string path =
            "series/block_" + std::to_string(b) + ".bin";
        descriptions.push_back(rp::ComputeUnitDescription{
            .name = "series_" + std::to_string(b),
            .executable =
                [&trajectory, &observable, block = blocks[b],
                 path](rp::SharedFilesystem& fs) {
                  auto computed = evaluate(trajectory, observable, block);
                  ByteWriter writer;
                  writer.put<std::uint64_t>(computed.begin);
                  writer.put_span<double>(computed.values);
                  fs.put(path, std::move(writer).take());
                },
            .input_staging = {},
            .output_staging = {path}});
      }
      um.submit_units(std::move(descriptions));
      um.wait_units();
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        auto bytes = um.filesystem().get("series/block_" +
                                         std::to_string(b) + ".bin");
        if (!bytes.ok()) continue;
        ByteReader reader(bytes.value());
        auto begin = reader.get<std::uint64_t>();
        auto values = reader.get_vector<double>();
        if (begin.ok() && values.ok()) {
          BlockValues block{static_cast<std::size_t>(begin.value()),
                            std::move(values).value()};
          place(result.series, block);
        }
      }
      result.metrics = session.metrics();
      break;
    }
  }
  result.metrics.tasks = blocks.size();
  result.metrics.wall_seconds = timer.seconds();
  return result;
}

}  // namespace mdtask::workflows
