// Ablations — design choices DESIGN.md calls out, measured on the real
// implementations (not the simulator):
//  (a) early-break vs naive Hausdorff (the paper's cited future-work
//      speedup, Taha & Hanbury 2015) — metric-evaluation counts;
//  (b) linear vs binomial-tree MPI broadcast — root messages/bytes;
//  (c) union-find vs BFS connected components — wall time;
//  (d) Alg. 2 block-size (n1) sweep — task count vs per-task work.
#include "bench_common.h"
#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/common/timer.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/traj/generators.h"

using namespace mdtask;

void ablate_hausdorff() {
  Table table("Ablation (a): early-break vs naive Hausdorff");
  table.set_header({"frames", "naive_evals", "early_evals", "saving",
                    "distances_equal"});
  for (std::size_t frames : {16u, 32u, 64u, 128u}) {
    traj::ProteinTrajectoryParams p;
    p.atoms = 128;
    p.frames = frames;
    p.seed = 1;
    const auto a = traj::make_protein_trajectory(p);
    p.seed = 2;
    const auto b = traj::make_protein_trajectory(p);
    // The tiled kVectorized scan, whose early break fires per kFrameTile
    // tile; the kScalar default breaks per frame pair and saves more.
    constexpr auto kTiled = kernels::KernelPolicy::kVectorized;
    const auto naive = analysis::hausdorff_naive_profiled(a, b, kTiled);
    const auto early = analysis::hausdorff_early_break_profiled(a, b, kTiled);
    table.add_row(
        {std::to_string(frames), std::to_string(naive.metric_evals),
         std::to_string(early.metric_evals),
         Table::fmt(100.0 * (1.0 - static_cast<double>(early.metric_evals) /
                                       static_cast<double>(
                                           naive.metric_evals)),
                    1) +
             "%",
         naive.distance == early.distance ? "yes" : "NO"});
  }
  bench::emit(table, "ablation_hausdorff_early_break");
}

void ablate_bcast() {
  Table table("Ablation (b): MPI broadcast algorithm (16 ranks, 1 MiB)");
  table.set_header({"algorithm", "root_messages", "root_bytes",
                    "total_bytes"});
  for (auto algo :
       {mpi::BcastAlgorithm::kLinear, mpi::BcastAlgorithm::kBinomialTree}) {
    const auto report = mpi::run_spmd(
        16,
        [](mpi::Communicator& comm) {
          std::vector<std::uint8_t> payload(1 << 20);
          comm.bcast(payload, 0);
        },
        algo);
    table.add_row(
        {algo == mpi::BcastAlgorithm::kLinear ? "linear" : "binomial tree",
         std::to_string(report.rank_stats[0].messages_sent),
         Table::fmt_bytes(
             static_cast<double>(report.rank_stats[0].bytes_sent)),
         Table::fmt_bytes(static_cast<double>(report.total.bytes_sent))});
  }
  bench::emit(table, "ablation_bcast");
}

void ablate_cc() {
  Table table("Ablation (c): connected components algorithm");
  table.set_header({"edges", "union_find_ms", "bfs_ms", "equal"});
  traj::BilayerParams params;
  params.atoms = 30000;
  const auto bilayer = traj::make_bilayer(params);
  const auto chunks = analysis::make_1d_chunks(bilayer.atoms(), 16);
  std::vector<analysis::Edge> edges;
  for (const auto& chunk : chunks) {
    auto part = analysis::lf_edges_1d(bilayer.positions, chunk,
                                      traj::default_cutoff(params));
    edges.insert(edges.end(), part.begin(), part.end());
  }
  WallTimer t1;
  const auto uf = analysis::connected_components_union_find(
      bilayer.atoms(), edges);
  const double uf_ms = t1.millis();
  WallTimer t2;
  const auto bfs =
      analysis::connected_components_bfs(bilayer.atoms(), edges);
  const double bfs_ms = t2.millis();
  table.add_row({std::to_string(edges.size()), Table::fmt(uf_ms, 2),
                 Table::fmt(bfs_ms, 2), uf == bfs ? "yes" : "NO"});
  bench::emit(table, "ablation_cc");
}

void ablate_block_size() {
  Table table("Ablation (d): Alg. 2 block size n1 (N = 64 trajectories)");
  table.set_header({"n1", "tasks", "pairs_per_task", "wall_ms"});
  traj::ProteinTrajectoryParams p;
  p.atoms = 64;
  p.frames = 16;
  const auto ensemble = traj::make_protein_ensemble(64, p);
  for (std::size_t n1 : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    auto blocks = analysis::make_psa_blocks(ensemble.size(), n1);
    analysis::DistanceMatrix out(ensemble.size());
    WallTimer timer;
    for (const auto& block : blocks.value()) {
      analysis::compute_psa_block(ensemble, block,
                                  analysis::HausdorffKernel::kEarlyBreak,
                                  out);
    }
    table.add_row({std::to_string(n1),
                   std::to_string(blocks.value().size()),
                   std::to_string(n1 * n1), Table::fmt(timer.millis(), 1)});
  }
  bench::emit(table, "ablation_block_size");
}

int main() {
  ablate_hausdorff();
  ablate_bcast();
  ablate_cc();
  ablate_block_size();
  return 0;
}
