#include "mdtask/analysis/leaflet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "mdtask/analysis/balltree.h"

namespace mdtask::analysis {

LeafletResult summarize_leaflets(ComponentLabels labels) {
  std::unordered_map<std::uint32_t, std::size_t> sizes;
  for (std::uint32_t label : labels) ++sizes[label];

  LeafletResult out;
  out.component_count = sizes.size();
  // Two largest components, ties broken by smaller label for determinism.
  std::pair<std::size_t, std::uint32_t> best{0, 0}, second{0, 0};
  for (auto [label, size] : sizes) {
    const std::pair<std::size_t, std::uint32_t> cand{size, label};
    auto better = [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    };
    if (better(cand, best)) {
      second = best;
      best = cand;
    } else if (better(cand, second)) {
      second = cand;
    }
  }
  out.leaflet_a = best.second;
  out.leaflet_a_size = best.first;
  out.leaflet_b = second.second;
  out.leaflet_b_size = second.first;
  out.unassigned = labels.size() - best.first - second.first;
  out.labels = std::move(labels);
  return out;
}

LeafletResult leaflet_finder_reference(std::span<const traj::Vec3> atoms,
                                       double cutoff) {
  const double c2 = cutoff * cutoff;
  UnionFind uf(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      if (traj::dist2(atoms[i], atoms[j]) <= c2) {
        uf.unite(static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(j));
      }
    }
  }
  ComponentLabels labels(atoms.size());
  for (std::uint32_t v = 0; v < atoms.size(); ++v) labels[v] = uf.find(v);
  canonicalize_labels(labels);
  return summarize_leaflets(std::move(labels));
}

std::vector<AtomChunk> make_1d_chunks(std::size_t n_atoms,
                                      std::size_t parts) {
  parts = std::max<std::size_t>(1, std::min(parts, std::max<std::size_t>(
                                                       1, n_atoms)));
  std::vector<AtomChunk> chunks;
  chunks.reserve(parts);
  const std::size_t base = n_atoms / parts;
  const std::size_t extra = n_atoms % parts;
  std::uint32_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const auto len =
        static_cast<std::uint32_t>(base + (p < extra ? 1 : 0));
    chunks.push_back({begin, begin + len});
    begin += len;
  }
  return chunks;
}

std::vector<BlockPair> make_2d_blocks(std::size_t n_atoms,
                                      std::size_t target_tasks) {
  // Largest g with g(g+1)/2 <= target_tasks (so the task count lands at
  // or just under the requested partitioning, e.g. 990 tasks for the
  // paper's 1024 partitions), minimum 1.
  std::size_t g = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(
                           std::max<std::size_t>(1, target_tasks)) +
                 1.0) -
       1.0) /
      2.0);
  g = std::max<std::size_t>(1, g);
  const auto chunks = make_1d_chunks(n_atoms, g);
  std::vector<BlockPair> blocks;
  blocks.reserve(chunks.size() * (chunks.size() + 1) / 2);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    for (std::size_t j = i; j < chunks.size(); ++j) {
      blocks.push_back({chunks[i], chunks[j]});
    }
  }
  return blocks;
}

namespace {

std::vector<std::uint32_t> iota_ids(std::uint32_t begin, std::uint32_t end) {
  std::vector<std::uint32_t> ids(end - begin);
  std::iota(ids.begin(), ids.end(), begin);
  return ids;
}

}  // namespace

std::vector<Edge> lf_edges_1d_spans(std::span<const traj::Vec3> chunk_atoms,
                                    std::span<const traj::Vec3> all_atoms,
                                    const AtomChunk& chunk, double cutoff) {
  const auto row_ids = iota_ids(chunk.begin, chunk.end);
  const auto col_ids =
      iota_ids(0, static_cast<std::uint32_t>(all_atoms.size()));
  return edges_within_cutoff(chunk_atoms, all_atoms, row_ids, col_ids,
                             cutoff);
}

std::vector<Edge> lf_edges_2d_spans(std::span<const traj::Vec3> row_atoms,
                                    std::span<const traj::Vec3> col_atoms,
                                    const BlockPair& block, double cutoff) {
  const auto row_ids = iota_ids(block.rows.begin, block.rows.end);
  const auto col_ids = iota_ids(block.cols.begin, block.cols.end);
  return edges_within_cutoff(row_atoms, col_atoms, row_ids, col_ids, cutoff);
}

std::vector<Edge> lf_edges_tree_spans(std::span<const traj::Vec3> row_atoms,
                                      std::span<const traj::Vec3> col_atoms,
                                      const BlockPair& block, double cutoff) {
  const BallTree tree(col_atoms, /*leaf_size=*/32);
  std::vector<Edge> edges;
  std::vector<std::uint32_t> hits;
  for (std::uint32_t i = block.rows.begin; i < block.rows.end; ++i) {
    hits.clear();
    tree.query_radius(row_atoms[i - block.rows.begin], cutoff, hits);
    for (std::uint32_t local : hits) {
      const std::uint32_t j = block.cols.begin + local;
      if (i < j) edges.push_back({i, j});
    }
  }
  return edges;
}

std::vector<Edge> lf_edges_1d(std::span<const traj::Vec3> all_atoms,
                              const AtomChunk& chunk, double cutoff) {
  return lf_edges_1d_spans(all_atoms.subspan(chunk.begin, chunk.size()),
                           all_atoms, chunk, cutoff);
}

std::vector<Edge> lf_edges_2d(std::span<const traj::Vec3> all_atoms,
                              const BlockPair& block, double cutoff) {
  return lf_edges_2d_spans(
      all_atoms.subspan(block.rows.begin, block.rows.size()),
      all_atoms.subspan(block.cols.begin, block.cols.size()), block, cutoff);
}

std::vector<Edge> lf_edges_tree(std::span<const traj::Vec3> all_atoms,
                                const BlockPair& block, double cutoff) {
  return lf_edges_tree_spans(
      all_atoms.subspan(block.rows.begin, block.rows.size()),
      all_atoms.subspan(block.cols.begin, block.cols.size()), block, cutoff);
}

std::size_t lf_block_cdist_bytes(const BlockPair& block) {
  return cdist_bytes(block.rows.size(), block.cols.size());
}

}  // namespace mdtask::analysis
