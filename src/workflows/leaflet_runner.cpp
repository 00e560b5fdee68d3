#include "mdtask/workflows/leaflet_runner.h"

#include <algorithm>

#include "mdtask/analysis/balltree.h"
#include "mdtask/common/serial.h"
#include "mdtask/common/timer.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/stream/shard_reader.h"

namespace mdtask::workflows {
namespace {

using analysis::AtomChunk;
using analysis::BlockPair;
using analysis::ComponentLabels;
using analysis::Edge;
using analysis::PartialComponents;
using traj::Vec3;

/// A unit of map work: a 1-D chunk (approach 1) or a 2-D block (2-4).
struct MapTask {
  BlockPair block;  // approach 1 stores {chunk, whole-system} here too
};

/// Builds the map-task list for an approach.
std::vector<MapTask> plan_tasks(int approach, std::size_t n_atoms,
                                std::size_t target_tasks) {
  std::vector<MapTask> tasks;
  if (approach == 1) {
    const auto whole =
        AtomChunk{0, static_cast<std::uint32_t>(n_atoms)};
    for (const auto& chunk :
         analysis::make_1d_chunks(n_atoms, target_tasks)) {
      tasks.push_back({BlockPair{chunk, whole}});
    }
  } else {
    for (const auto& block :
         analysis::make_2d_blocks(n_atoms, target_tasks)) {
      tasks.push_back({block});
    }
  }
  return tasks;
}

/// Transient memory a map task materializes (the cdist block for
/// approaches 1-3; the BallTree + result buffers for approach 4).
std::uint64_t task_memory_bytes(int approach, const MapTask& task) {
  if (approach <= 3) return analysis::lf_block_cdist_bytes(task.block);
  // BallTree over the column chunk: points + ids + nodes, ~24 B/point.
  return task.block.cols.size() * 24;
}

bool uses_partial_components(int approach) { return approach >= 3; }

LfRunResult finish_from_edges(std::size_t n_atoms, std::vector<Edge> edges) {
  LfRunResult result;
  result.edges_found = edges.size();
  result.leaflets = analysis::summarize_leaflets(
      analysis::connected_components_union_find(n_atoms, edges));
  return result;
}

LfRunResult finish_from_partials(std::size_t n_atoms,
                                 std::span<const PartialComponents> parts) {
  LfRunResult result;
  result.leaflets = analysis::summarize_leaflets(
      analysis::merge_partial_components(n_atoms, parts));
  return result;
}

/// Streamed edge discovery: the block's row/col chunks are read from
/// the run's store (a points store: one atom per frame) and handed to
/// the exact span kernels the in-memory path runs. Approach 1 never
/// reaches here: its broadcast semantics load the store whole at the
/// driver. A failed read is recorded in the store, and the task
/// contributes no edges, like a lost map task before its retry.
std::vector<Edge> discover_streamed(int approach, const MapTask& task,
                                    double cutoff,
                                    stream::DecodedStore& store) {
  const AtomChunk& r = task.block.rows;
  auto rows = store.frames(r.begin, r.size());
  if (!rows.ok()) return {};
  traj::Trajectory cols;
  if (!task.block.diagonal()) {
    const AtomChunk& c = task.block.cols;
    auto read = store.frames(c.begin, c.size());
    if (!read.ok()) return {};
    cols = std::move(read).value();
  }
  const std::span<const Vec3> row_view = rows.value().data();
  const std::span<const Vec3> col_view =
      task.block.diagonal() ? row_view : cols.data();
  if (approach == 4) {
    return analysis::lf_edges_tree_spans(row_view, col_view, task.block,
                                         cutoff);
  }
  return analysis::lf_edges_2d_spans(row_view, col_view, task.block, cutoff);
}

/// One map task's edges: from the shared store when streaming, from the
/// in-memory view otherwise.
std::vector<Edge> run_discovery(int approach, std::span<const Vec3> view,
                                const MapTask& task, double cutoff,
                                stream::DecodedStore* stream) {
  if (stream != nullptr) {
    return discover_streamed(approach, task, cutoff, *stream);
  }
  switch (approach) {
    case 1:
      return analysis::lf_edges_1d(view, task.block.rows, cutoff);
    case 2:
    case 3:
      return analysis::lf_edges_2d(view, task.block, cutoff);
    default:
      return analysis::lf_edges_tree(view, task.block, cutoff);
  }
}

/// One approach-3/4 map task: its block's edges, summarized in block
/// slots (no hashing).
PartialComponents run_summary(int approach, std::span<const Vec3> view,
                              const MapTask& task, double cutoff,
                              stream::DecodedStore* stream) {
  return analysis::lf_partial_components(
      run_discovery(approach, view, task, cutoff, stream), task.block);
}

// ---------------------------------------------------------------- MPI --

Result<LfRunResult> run_mpi(int approach, std::span<const Vec3> atoms,
                            std::size_t n_atoms, double cutoff,
                            const LfRunConfig& config,
                            stream::DecodedStore* stream) {
  const auto tasks = plan_tasks(approach, n_atoms, config.target_tasks);
  LfRunResult result;
  std::atomic<bool> memory_failed{false};
  WallTimer timer;
  std::vector<Edge> root_edges;
  std::vector<PartialComponents> root_parts;
  double distribute_seconds = 0.0;

  auto body = [&](mpi::Communicator& comm, fault::CheckpointStore&) {
        // Approach 1 really broadcasts the positions through the MPI
        // runtime (Fig. 8 measures this phase); other approaches assume
        // pre-partitioned data on the shared filesystem.
        std::vector<Vec3> local_copy;
        std::span<const Vec3> view = atoms;
        if (approach == 1) {
          WallTimer bcast_timer;
          if (comm.rank() == 0) {
            local_copy.assign(atoms.begin(), atoms.end());
          }
          comm.bcast(local_copy, 0);
          view = local_copy;
          if (comm.rank() == 0) {
            distribute_seconds = bcast_timer.seconds();
          }
        }

        std::vector<Edge> my_edges;
        std::vector<analysis::VertexRoot> my_pairs;
        for (std::size_t t = static_cast<std::size_t>(comm.rank());
             t < tasks.size(); t += static_cast<std::size_t>(comm.size())) {
          try {
            engines::check_task_memory(task_memory_bytes(approach, tasks[t]),
                                       config.task_memory_limit);
          } catch (const engines::TaskMemoryExceeded&) {
            memory_failed.store(true);
            break;
          }
          if (uses_partial_components(approach)) {
            auto part = run_summary(approach, view, tasks[t], cutoff, stream);
            my_pairs.insert(my_pairs.end(), part.vertex_root.begin(),
                            part.vertex_root.end());
          } else {
            auto edges =
                run_discovery(approach, view, tasks[t], cutoff, stream);
            my_edges.insert(my_edges.end(), edges.begin(), edges.end());
          }
        }
        if (uses_partial_components(approach)) {
          auto gathered = comm.gather<analysis::VertexRoot>(my_pairs, 0);
          if (comm.rank() == 0) {
            for (auto& g : gathered) {
              PartialComponents part;
              part.vertex_root = std::move(g);
              root_parts.push_back(std::move(part));
            }
          }
        } else {
          auto gathered = comm.gather<Edge>(my_edges, 0);
          if (comm.rank() == 0) {
            for (auto& g : gathered) {
              root_edges.insert(root_edges.end(), g.begin(), g.end());
            }
          }
        }
  };
  // Under a fault plan, faulty attempts abort before the body's first
  // collective, so the rank-0 accumulators above are only ever filled by
  // the one attempt that runs to completion.
  mpi::SpmdReport report;
  try {
    report = run_mpi_job(
        config, static_cast<int>(std::max<std::size_t>(1, config.workers)),
        body);
  } catch (const fault::InjectedFault& f) {
    return Error(ErrorCode::kUnavailable,
                 std::string("MPI leaflet finder: ") + f.what())
        .with_task({"mpi", f.task_id(), f.attempt(),
                    std::string(fault::to_string(f.kind()))});
  }

  if (memory_failed.load()) {
    return Error(ErrorCode::kResourceExhausted,
                 "MPI leaflet finder: cdist block exceeds task memory "
                 "limit (increase target_tasks)");
  }
  result = uses_partial_components(approach)
               ? finish_from_partials(n_atoms, root_parts)
               : finish_from_edges(n_atoms, std::move(root_edges));
  result.metrics.wall_seconds = timer.seconds();
  result.metrics.tasks = tasks.size();
  result.metrics.shuffle_bytes = report.total.bytes_sent;
  result.distribute_seconds = distribute_seconds;
  return result;
}

// -------------------------------------------------------------- Spark --

Result<LfRunResult> run_spark(int approach, std::span<const Vec3> atoms,
                              std::size_t n_atoms, double cutoff,
                              const LfRunConfig& config,
                              stream::DecodedStore* stream) {
  auto tasks = plan_tasks(approach, n_atoms, config.target_tasks);
  SparkSession session(config,
                       {.task_memory_limit = config.task_memory_limit});
  spark::SparkContext& sc = session.engine();

  // Approach 1 broadcasts the full system; the others account only the
  // per-task block inputs (task-API style).
  WallTimer distribute_timer;
  auto positions = sc.broadcast(
      atoms, approach == 1 ? atoms.size_bytes() : std::uint64_t{0});
  const double distribute_seconds = distribute_timer.seconds();

  WallTimer timer;
  const std::size_t n_tasks = tasks.size();
  auto base = sc.parallelize(std::move(tasks), n_tasks);
  LfRunResult result;
  try {
    if (uses_partial_components(approach)) {
      auto parts_rdd = base.map_partitions(
          [positions, approach, cutoff, stream](spark::TaskContext& tc,
                                                std::vector<MapTask>& mine) {
            std::vector<PartialComponents> out;
            for (const auto& task : mine) {
              tc.reserve_memory(task_memory_bytes(approach, task));
              out.push_back(
                  run_summary(approach, *positions, task, cutoff, stream));
            }
            return out;
          });
      // The paper's reduce phase as a tree of summary merges inside the
      // framework (shuffle volume = summary bytes).
      const PartialComponents merged =
          parts_rdd.tree_reduce(analysis::merge_partials_pairwise);
      result = finish_from_partials(
          n_atoms, std::span<const PartialComponents>(&merged, 1));
    } else {
      auto edges =
          base.map_partitions(
                  [positions, approach, cutoff, stream](
                      spark::TaskContext& tc, std::vector<MapTask>& mine) {
                    std::vector<Edge> out;
                    for (const auto& task : mine) {
                      tc.reserve_memory(task_memory_bytes(approach, task));
                      auto part = run_discovery(approach, *positions, task,
                                                cutoff, stream);
                      out.insert(out.end(), part.begin(), part.end());
                    }
                    return out;
                  })
              .collect();
      result = finish_from_edges(n_atoms, std::move(edges));
    }
  } catch (const engines::TaskMemoryExceeded& e) {
    return Error(ErrorCode::kResourceExhausted,
                 "Spark leaflet finder: task needs " +
                     std::to_string(e.requested()) + " B > limit " +
                     std::to_string(e.limit()) + " B");
  }
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  result.distribute_seconds = distribute_seconds;
  return result;
}

// --------------------------------------------------------------- Dask --

Result<LfRunResult> run_dask(int approach, std::span<const Vec3> atoms,
                             std::size_t n_atoms, double cutoff,
                             const LfRunConfig& config,
                             stream::DecodedStore* stream) {
  const auto tasks = plan_tasks(approach, n_atoms, config.target_tasks);
  DaskSession session(config,
                      {.task_memory_limit = config.task_memory_limit});
  dask::DaskClient& client = session.engine();

  // Approach 1: scatter/replicate the positions to workers (Dask's
  // broadcast is weaker than Spark's — modelled in the perf layer; here
  // we account the replicated bytes).
  WallTimer distribute_timer;
  const std::uint64_t broadcast_bytes =
      approach == 1 ? atoms.size_bytes() * config.workers : 0;
  const double distribute_seconds = distribute_timer.seconds();

  WallTimer timer;
  LfRunResult result;
  try {
    if (uses_partial_components(approach)) {
      std::vector<dask::Future<PartialComponents>> futures;
      futures.reserve(tasks.size());
      for (const auto& task : tasks) {
        futures.push_back(client.submit([&client, &atoms, task, approach,
                                         cutoff, stream] {
          client.reserve_memory(task_memory_bytes(approach, task));
          auto part = run_summary(approach, atoms, task, cutoff, stream);
          // The summary is what moves to the reduce side (Table 2).
          client.metrics().shuffle_bytes += part.byte_size();
          client.metrics().shuffle_records += part.vertex_root.size();
          return part;
        }));
      }
      // Pairwise merge tasks inside the graph (no barrier).
      std::vector<dask::Future<PartialComponents>> layer = std::move(futures);
      while (layer.size() > 1) {
        std::vector<dask::Future<PartialComponents>> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
          next.push_back(client.submit(analysis::merge_partials_pairwise,
                                       layer[i], layer[i + 1]));
        }
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
      }
      const PartialComponents& merged = layer.front().get();
      result = finish_from_partials(
          n_atoms, std::span<const PartialComponents>(&merged, 1));
    } else {
      std::vector<dask::Future<std::vector<Edge>>> futures;
      futures.reserve(tasks.size());
      for (const auto& task : tasks) {
        futures.push_back(client.submit(
            [&client, &atoms, task, approach, cutoff, stream] {
              client.reserve_memory(task_memory_bytes(approach, task));
              return run_discovery(approach, atoms, task, cutoff, stream);
            }));
      }
      std::vector<Edge> edges;
      for (const auto& f : futures) {
        const auto& part = f.get();
        edges.insert(edges.end(), part.begin(), part.end());
      }
      result = finish_from_edges(n_atoms, std::move(edges));
    }
  } catch (const engines::TaskMemoryExceeded& e) {
    return Error(ErrorCode::kResourceExhausted,
                 "Dask leaflet finder: workers kept restarting (task needs " +
                     std::to_string(e.requested()) + " B > limit " +
                     std::to_string(e.limit()) + " B)");
  }
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  result.metrics.broadcast_bytes = broadcast_bytes;
  result.worker_restarts = client.worker_restarts();
  result.distribute_seconds = distribute_seconds;
  return result;
}

// ----------------------------------------------------------------- RP --

Result<LfRunResult> run_rp(int approach, std::span<const Vec3> atoms,
                           std::size_t n_atoms, double cutoff,
                           const LfRunConfig& config,
                           stream::DecodedStore* stream) {
  const auto tasks = plan_tasks(approach, n_atoms, config.target_tasks);
  RpSession session(config);
  rp::UnitManager& um = session.engine();

  WallTimer timer;
  std::vector<rp::ComputeUnitDescription> descriptions;
  descriptions.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const std::string out_path = "lf/task_" + std::to_string(t) + ".bin";
    descriptions.push_back(rp::ComputeUnitDescription{
        .name = "lf_task_" + std::to_string(t),
        .executable =
            [&atoms, task = tasks[t], approach, cutoff, out_path,
             limit = config.task_memory_limit,
             stream](rp::SharedFilesystem& fs) {
              engines::check_task_memory(task_memory_bytes(approach, task),
                                         limit);
              ByteWriter writer;
              if (uses_partial_components(approach)) {
                auto part = run_summary(approach, atoms, task, cutoff, stream);
                writer.put_span<analysis::VertexRoot>(part.vertex_root);
              } else {
                writer.put_span<Edge>(
                    run_discovery(approach, atoms, task, cutoff, stream));
              }
              fs.put(out_path, std::move(writer).take());
            },
        .input_staging = {},
        .output_staging = {out_path}});
  }
  auto units = um.submit_units(std::move(descriptions));
  um.wait_units();

  for (const auto& unit : units) {
    if (unit->state() == rp::UnitState::kFailed) {
      return Error(ErrorCode::kResourceExhausted,
                   "RP leaflet finder: unit " + unit->name() +
                       " failed: " + unit->failure_reason());
    }
  }

  LfRunResult result;
  std::vector<Edge> edges;
  std::vector<PartialComponents> parts;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    auto bytes = um.filesystem().get("lf/task_" + std::to_string(t) + ".bin");
    if (!bytes.ok()) continue;
    ByteReader reader(bytes.value());
    if (uses_partial_components(approach)) {
      auto pairs = reader.get_vector<analysis::VertexRoot>();
      if (pairs.ok()) {
        PartialComponents part;
        part.vertex_root = std::move(pairs).value();
        parts.push_back(std::move(part));
      }
    } else {
      auto es = reader.get_vector<Edge>();
      if (es.ok()) {
        edges.insert(edges.end(), es.value().begin(), es.value().end());
      }
    }
  }
  result = uses_partial_components(approach)
               ? finish_from_partials(n_atoms, parts)
               : finish_from_edges(n_atoms, std::move(edges));
  result.metrics = session.metrics();
  result.metrics.wall_seconds = timer.seconds();
  return result;
}

Result<LfRunResult> dispatch(EngineKind engine, int approach,
                             std::span<const Vec3> atoms,
                             std::size_t n_atoms, double cutoff,
                             const LfRunConfig& config,
                             stream::DecodedStore* stream) {
  switch (engine) {
    case EngineKind::kMpi:
      return run_mpi(approach, atoms, n_atoms, cutoff, config, stream);
    case EngineKind::kSpark:
      return run_spark(approach, atoms, n_atoms, cutoff, config, stream);
    case EngineKind::kDask:
      return run_dask(approach, atoms, n_atoms, cutoff, config, stream);
    case EngineKind::kRp:
      return run_rp(approach, atoms, n_atoms, cutoff, config, stream);
  }
  return Error(ErrorCode::kInvalidArgument, "unknown engine");
}

}  // namespace

Result<LfRunResult> run_leaflet_finder(EngineKind engine, int approach,
                                       std::span<const Vec3> atoms,
                                       double cutoff,
                                       const LfRunConfig& config) {
  if (approach < 1 || approach > 4) {
    return Error(ErrorCode::kInvalidArgument,
                 "leaflet finder approach must be 1..4");
  }
  trace::Span span = run_span(config.tracer, "leaflet-finder", engine);
  span.arg_num("approach", approach);
  span.arg_num("atoms", static_cast<double>(atoms.size()));
  return dispatch(engine, approach, atoms, atoms.size(), cutoff, config,
                  nullptr);
}

Result<LfRunResult> run_leaflet_finder_streamed(EngineKind engine,
                                                int approach,
                                                const StreamInput& input,
                                                double cutoff,
                                                const LfRunConfig& config) {
  if (approach < 1 || approach > 4) {
    return Error(ErrorCode::kInvalidArgument,
                 "leaflet finder approach must be 1..4");
  }
  auto opened = stream::ShardReader::open(input.path, input.mode);
  if (!opened.ok()) return opened.error();
  // Points store: one atom per stored frame.
  if (opened.value().atoms() != 1) {
    return Error(ErrorCode::kInvalidArgument,
                 "leaflet finder store holds " +
                     std::to_string(opened.value().atoms()) +
                     " atoms per frame, not 1: " + input.path);
  }
  stream::DecodedStore store(std::move(opened).value());
  if (config.tracer != nullptr) store.reader().set_tracer(config.tracer);
  const std::size_t n_atoms = store.reader().frames();

  if (approach == 1) {
    // Broadcast-everything by definition: the store is read once at the
    // driver (the distribute phase the engines then measure) and the
    // run proceeds in-memory.
    auto all = store.reader().read_all();
    if (!all.ok()) return all.error();
    auto result = run_leaflet_finder(engine, approach, all.value().data(),
                                     cutoff, config);
    if (!result.ok()) return result;
    LfRunResult run = std::move(result).value();
    run.metrics.staged_bytes += store.reader().bytes_read();
    return run;
  }

  trace::Span span =
      run_span(config.tracer, "leaflet-finder-streamed", engine);
  span.arg_num("approach", approach);
  span.arg_num("atoms", static_cast<double>(n_atoms));
  auto result =
      dispatch(engine, approach, {}, n_atoms, cutoff, config, &store);
  if (!result.ok()) return result;
  if (auto error = store.error()) return *error;
  LfRunResult run = std::move(result).value();
  run.metrics.staged_bytes += store.reader().bytes_read();
  return run;
}

}  // namespace mdtask::workflows
