#include "mdtask/workflows/psa_runner.h"

#include <cmath>
#include <mutex>
#include <numeric>
#include <optional>

#include "mdtask/common/serial.h"
#include "mdtask/common/timer.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/stream/shard_reader.h"

namespace mdtask::workflows {
namespace {

using analysis::DistanceMatrix;
using analysis::PsaBlock;

/// A computed matrix entry shipped between tasks and the driver.
struct MatrixEntry {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

std::vector<MatrixEntry> compute_block_entries(
    const traj::Ensemble& ensemble, const PsaBlock& block, PsaMetric metric,
    kernels::KernelPolicy policy) {
  std::vector<MatrixEntry> out;
  out.reserve(block.pair_count());
  DistanceMatrix scratch(ensemble.size());
  switch (metric) {
    case PsaMetric::kHausdorff:
      analysis::compute_psa_block(ensemble, block,
                                  analysis::HausdorffKernel::kNaive, policy,
                                  scratch);
      break;
    case PsaMetric::kHausdorffEarlyBreak:
      analysis::compute_psa_block(ensemble, block,
                                  analysis::HausdorffKernel::kEarlyBreak,
                                  policy, scratch);
      break;
    case PsaMetric::kFrechet:
      analysis::compute_psa_block_frechet(ensemble, block, scratch);
      break;
  }
  for (std::size_t i = block.row_begin; i < block.row_end; ++i) {
    for (std::size_t j = block.col_begin; j < block.col_end; ++j) {
      out.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j), scratch.at(i, j)});
    }
  }
  return out;
}

void fill_matrix(DistanceMatrix& matrix,
                 std::span<const MatrixEntry> entries) {
  for (const auto& e : entries) matrix.set(e.row, e.col, e.value);
}

std::vector<PsaBlock> plan_blocks(std::size_t n_trajectories,
                                  const PsaRunConfig& config) {
  const std::size_t n1 = psa_effective_block_size(n_trajectories, config);
  auto blocks = analysis::make_psa_blocks(n_trajectories, n1);
  // n1 is validated > 0 by psa_effective_block_size.
  return std::move(blocks).value();
}

/// Shared out-of-core input of one streamed PSA run: the store holds
/// the N trajectories concatenated frame-major; every block task reads
/// only its row/col trajectories into a sparse local ensemble (the
/// unneeded slots stay empty) and runs the unchanged block kernel on
/// it, so values are bit-identical to the in-memory run. Read errors
/// are captured once and surfaced after the engine drains.
struct PsaStreamState {
  stream::ShardReader reader;
  std::size_t trajectories = 0;
  std::size_t frames_each = 0;
  std::mutex mu;
  std::optional<Error> error;

  explicit PsaStreamState(stream::ShardReader r) : reader(std::move(r)) {}

  void fail(Error e) {
    std::lock_guard lk(mu);
    if (!error.has_value()) error = std::move(e);
  }

  bool load_into(traj::Ensemble& local, std::size_t i) {
    auto t = reader.read_frames(i * frames_each, frames_each);
    if (!t.ok()) {
      fail(t.error());
      return false;
    }
    local[i] = std::move(t).value();
    return true;
  }

  std::vector<MatrixEntry> compute(const PsaBlock& block, PsaMetric metric,
                                   kernels::KernelPolicy policy) {
    traj::Ensemble local(trajectories);
    bool ok = true;
    for (std::size_t i = block.row_begin; i < block.row_end && ok; ++i) {
      ok = load_into(local, i);
    }
    for (std::size_t j = block.col_begin; j < block.col_end && ok; ++j) {
      if (local[j].frames() == 0) ok = load_into(local, j);
    }
    if (!ok) return {};  // failed read: the block contributes nothing
    return compute_block_entries(local, block, metric, policy);
  }
};

/// One block task's entries: from the shared store when streaming, from
/// the in-memory ensemble otherwise.
std::vector<MatrixEntry> run_block(const traj::Ensemble& ensemble,
                                   const PsaBlock& block, PsaMetric metric,
                                   kernels::KernelPolicy policy,
                                   PsaStreamState* stream) {
  if (stream != nullptr) return stream->compute(block, metric, policy);
  return compute_block_entries(ensemble, block, metric, policy);
}

PsaRunResult run_psa_mpi(const traj::Ensemble& ensemble, std::size_t n,
                         const PsaRunConfig& config,
                         PsaStreamState* stream) {
  const auto blocks = plan_blocks(n, config);
  PsaRunResult result;
  result.matrix = DistanceMatrix(n);
  WallTimer timer;
  // A budget-exhausted fault plan propagates the InjectedFault (MPI_Abort
  // semantics — PSA has no partial results).
  const auto report = run_mpi_job(
      config, static_cast<int>(std::max<std::size_t>(1, config.workers)),
      [&](mpi::Communicator& comm, fault::CheckpointStore&) {
        // Block-cyclic ownership; every rank reads the shared ensemble
        // (in the paper each task reads its input files from Lustre).
        std::vector<MatrixEntry> mine;
        for (std::size_t b = static_cast<std::size_t>(comm.rank());
             b < blocks.size();
             b += static_cast<std::size_t>(comm.size())) {
          auto entries = run_block(ensemble, blocks[b], config.metric,
                                   config.kernel_policy, stream);
          mine.insert(mine.end(), entries.begin(), entries.end());
        }
        auto gathered = comm.gather<MatrixEntry>(mine, 0);
        if (comm.rank() == 0) {
          for (const auto& part : gathered) fill_matrix(result.matrix, part);
        }
      });
  result.metrics.wall_seconds = timer.seconds();
  result.metrics.tasks = blocks.size();
  result.metrics.shuffle_bytes = report.total.bytes_sent;
  return result;
}

PsaRunResult run_psa_spark(const traj::Ensemble& ensemble, std::size_t n,
                           const PsaRunConfig& config,
                           PsaStreamState* stream) {
  auto blocks = plan_blocks(n, config);
  SparkSession session(config);
  spark::SparkContext& sc = session.engine();
  // The trajectory ensemble is a broadcast variable, as the paper's
  // PySpark implementation ships the file set description to executors.
  std::uint64_t ensemble_bytes = 0;
  for (const auto& t : ensemble) ensemble_bytes += t.byte_size();
  auto shared = sc.broadcast(&ensemble, ensemble_bytes);

  WallTimer timer;
  const std::size_t n_blocks = blocks.size();
  const auto metric = config.metric;
  const auto policy = config.kernel_policy;
  auto entries =
      sc.parallelize(std::move(blocks), n_blocks)
          .map_partitions([shared, metric, policy,
                           stream](spark::TaskContext&,
                                   std::vector<PsaBlock>& mine) {
            std::vector<MatrixEntry> out;
            for (const auto& block : mine) {
              auto part = run_block(**shared, block, metric, policy, stream);
              out.insert(out.end(), part.begin(), part.end());
            }
            return out;
          })
          .collect();
  PsaRunResult result;
  result.matrix = DistanceMatrix(n);
  fill_matrix(result.matrix, entries);
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  return result;
}

PsaRunResult run_psa_dask(const traj::Ensemble& ensemble, std::size_t n,
                          const PsaRunConfig& config,
                          PsaStreamState* stream) {
  const auto blocks = plan_blocks(n, config);
  DaskSession session(config);
  dask::DaskClient& client = session.engine();
  WallTimer timer;
  std::vector<dask::Future<std::vector<MatrixEntry>>> futures;
  futures.reserve(blocks.size());
  for (const auto& block : blocks) {
    // One delayed function per block task, exactly the paper's Dask PSA.
    futures.push_back(client.submit([&ensemble, block, &config, stream] {
      return run_block(ensemble, block, config.metric, config.kernel_policy,
                       stream);
    }));
  }
  PsaRunResult result;
  result.matrix = DistanceMatrix(n);
  for (const auto& f : futures) fill_matrix(result.matrix, f.get());
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  return result;
}

PsaRunResult run_psa_rp(const traj::Ensemble& ensemble, std::size_t n,
                        const PsaRunConfig& config,
                        PsaStreamState* stream) {
  const auto blocks = plan_blocks(n, config);
  RpSession session(config);
  rp::UnitManager& um = session.engine();
  WallTimer timer;
  std::vector<rp::ComputeUnitDescription> descriptions;
  descriptions.reserve(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::string out_path = "psa/block_" + std::to_string(b) + ".bin";
    descriptions.push_back(rp::ComputeUnitDescription{
        .name = "psa_block_" + std::to_string(b),
        .executable =
            [&ensemble, block = blocks[b], metric = config.metric,
             policy = config.kernel_policy, out_path,
             stream](rp::SharedFilesystem& fs) {
              auto entries =
                  run_block(ensemble, block, metric, policy, stream);
              ByteWriter writer;
              writer.put_span<MatrixEntry>(entries);
              fs.put(out_path, std::move(writer).take());
            },
        .input_staging = {},
        .output_staging = {out_path}});
  }
  auto units = um.submit_units(std::move(descriptions));
  um.wait_units();
  PsaRunResult result;
  result.matrix = DistanceMatrix(n);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    auto bytes =
        um.filesystem().get("psa/block_" + std::to_string(b) + ".bin");
    if (!bytes.ok()) continue;  // failed unit: leave zeros (RP semantics)
    ByteReader reader(bytes.value());
    auto entries = reader.get_vector<MatrixEntry>();
    if (entries.ok()) fill_matrix(result.matrix, entries.value());
  }
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  return result;
}

PsaRunResult dispatch(EngineKind engine, const traj::Ensemble& ensemble,
                      std::size_t n, const PsaRunConfig& config,
                      PsaStreamState* stream) {
  switch (engine) {
    case EngineKind::kMpi: return run_psa_mpi(ensemble, n, config, stream);
    case EngineKind::kSpark:
      return run_psa_spark(ensemble, n, config, stream);
    case EngineKind::kDask: return run_psa_dask(ensemble, n, config, stream);
    case EngineKind::kRp: return run_psa_rp(ensemble, n, config, stream);
  }
  return run_psa_mpi(ensemble, n, config, stream);
}

}  // namespace

std::size_t psa_effective_block_size(std::size_t n_trajectories,
                                     const PsaRunConfig& config) {
  if (config.block_size > 0) return config.block_size;
  if (n_trajectories == 0) return 1;
  // One task per core target: k^2 ~= 2 * workers tasks => n1 = N / k.
  const double k = std::ceil(std::sqrt(
      2.0 * static_cast<double>(std::max<std::size_t>(1, config.workers))));
  const auto n1 = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_trajectories) / k));
  return std::max<std::size_t>(1, n1);
}

PsaRunResult run_psa(EngineKind engine, const traj::Ensemble& ensemble,
                     const PsaRunConfig& config) {
  trace::Span span = run_span(config.tracer, "psa", engine);
  span.arg_num("trajectories", static_cast<double>(ensemble.size()));
  return dispatch(engine, ensemble, ensemble.size(), config, nullptr);
}

Result<PsaRunResult> run_psa_streamed(EngineKind engine,
                                      const StreamInput& input,
                                      const PsaRunConfig& config) {
  if (input.trajectories == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "run_psa_streamed: input.trajectories must be set");
  }
  auto opened = stream::ShardReader::open(input.path, input.mode);
  if (!opened.ok()) return opened.error();
  PsaStreamState state(std::move(opened).value());
  if (state.reader.frames() % input.trajectories != 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "store frames (" + std::to_string(state.reader.frames()) +
                     ") do not divide into " +
                     std::to_string(input.trajectories) +
                     " trajectories: " + input.path);
  }
  state.trajectories = input.trajectories;
  state.frames_each = state.reader.frames() / input.trajectories;
  if (config.tracer != nullptr) state.reader.set_tracer(config.tracer);

  trace::Span span = run_span(config.tracer, "psa-streamed", engine);
  span.arg_num("trajectories", static_cast<double>(input.trajectories));
  const traj::Ensemble empty;
  PsaRunResult result =
      dispatch(engine, empty, input.trajectories, config, &state);
  if (state.error.has_value()) return *state.error;
  result.metrics.staged_bytes += state.reader.bytes_read();
  return result;
}

}  // namespace mdtask::workflows
