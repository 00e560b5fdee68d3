#include "mdtask/analysis/balltree.h"

#include <algorithm>
#include <cmath>

namespace mdtask::analysis {

BallTree::BallTree(std::span<const traj::Vec3> points,
                   std::size_t leaf_size) {
  // The build permutes {point, id} entries in place; ids and the SoA
  // lanes are filled once from the final order.
  std::vector<Entry> entries;
  entries.reserve(points.size());
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    entries.push_back({points[i], i});
  }
  if (!entries.empty()) {
    nodes_.reserve(2 * entries.size() / std::max<std::size_t>(1, leaf_size));
    build(entries, 0, static_cast<std::uint32_t>(entries.size()),
          std::max<std::size_t>(1, leaf_size));
  }
  ids_.resize(entries.size());
  xs_.resize(entries.size());
  ys_.resize(entries.size());
  zs_.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ids_[i] = entries[i].id;
    xs_[i] = entries[i].point.x;
    ys_[i] = entries[i].point.y;
    zs_[i] = entries[i].point.z;
  }
}

std::uint32_t BallTree::build(std::vector<Entry>& entries,
                              std::uint32_t begin, std::uint32_t end,
                              std::size_t leaf_size) {
  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  // Bounding ball: centroid + max distance (cheap and tight enough).
  double cx = 0, cy = 0, cz = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    cx += entries[i].point.x;
    cy += entries[i].point.y;
    cz += entries[i].point.z;
  }
  const double n = end - begin;
  const traj::Vec3 center{static_cast<float>(cx / n),
                          static_cast<float>(cy / n),
                          static_cast<float>(cz / n)};
  double r2 = 0.0;
  for (std::uint32_t i = begin; i < end; ++i) {
    r2 = std::max(r2, traj::dist2(center, entries[i].point));
  }

  Node node;
  node.center = center;
  node.radius = std::sqrt(r2);
  node.begin = begin;
  node.end = end;

  if (end - begin > leaf_size) {
    // Split at the median of the widest coordinate.
    const traj::Vec3& p0 = entries[begin].point;
    float mins[3] = {p0.x, p0.y, p0.z};
    float maxs[3] = {mins[0], mins[1], mins[2]};
    for (std::uint32_t i = begin; i < end; ++i) {
      const traj::Vec3& p = entries[i].point;
      const float c[3] = {p.x, p.y, p.z};
      for (int d = 0; d < 3; ++d) {
        mins[d] = std::min(mins[d], c[d]);
        maxs[d] = std::max(maxs[d], c[d]);
      }
    }
    int dim = 0;
    float spread = maxs[0] - mins[0];
    for (int d = 1; d < 3; ++d) {
      if (maxs[d] - mins[d] > spread) {
        spread = maxs[d] - mins[d];
        dim = d;
      }
    }
    const std::uint32_t mid = begin + (end - begin) / 2;
    auto key = [dim](const Entry& e) {
      return dim == 0 ? e.point.x : dim == 1 ? e.point.y : e.point.z;
    };
    // Points and their ids move together around the median.
    std::nth_element(entries.begin() + begin, entries.begin() + mid,
                     entries.begin() + end,
                     [&](const Entry& a, const Entry& b) {
                       return key(a) < key(b);
                     });

    node.left =
        static_cast<std::int32_t>(build(entries, begin, mid, leaf_size));
    node.right =
        static_cast<std::int32_t>(build(entries, mid, end, leaf_size));
  }

  nodes_[node_index] = node;
  return node_index;
}

void BallTree::scan_leaf(const Node& node, traj::Vec3 q, double r2,
                         std::vector<std::uint32_t>& out) const {
  // Branch-free SoA sweep: distances into a buffer first (the loop the
  // compiler vectorizes), then a branchless hit compaction — the same
  // two-pass shape as the cutoff kernel.
  constexpr std::size_t kLeafTile = 256;
  double d2[kLeafTile];
  std::uint32_t hits[kLeafTile];
  const double qx = q.x, qy = q.y, qz = q.z;
  for (std::uint32_t t0 = node.begin; t0 < node.end;
       t0 += static_cast<std::uint32_t>(kLeafTile)) {
    const std::uint32_t t1 = std::min<std::uint32_t>(
        t0 + static_cast<std::uint32_t>(kLeafTile), node.end);
    const std::uint32_t w = t1 - t0;
    for (std::uint32_t j = 0; j < w; ++j) {
      const double dx = static_cast<double>(xs_[t0 + j]) - qx;
      const double dy = static_cast<double>(ys_[t0 + j]) - qy;
      const double dz = static_cast<double>(zs_[t0 + j]) - qz;
      d2[j] = dx * dx + dy * dy + dz * dz;
    }
    std::uint32_t m = 0;
    for (std::uint32_t j = 0; j < w; ++j) {
      hits[m] = t0 + j;
      m += d2[j] <= r2 ? 1 : 0;
    }
    for (std::uint32_t h = 0; h < m; ++h) out.push_back(ids_[hits[h]]);
  }
}

void BallTree::query(std::uint32_t node_index, traj::Vec3 q, double radius,
                     std::vector<std::uint32_t>& out) const {
  const Node& node = nodes_[node_index];
  const double d = traj::dist(node.center, q);
  if (d > radius + node.radius) return;  // ball cannot intersect query
  if (node.left < 0) {
    scan_leaf(node, q, radius * radius, out);
    return;
  }
  // If the query ball contains the node ball entirely, every point hits.
  if (d + node.radius <= radius) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      out.push_back(ids_[i]);
    }
    return;
  }
  query(static_cast<std::uint32_t>(node.left), q, radius, out);
  query(static_cast<std::uint32_t>(node.right), q, radius, out);
}

void BallTree::query_radius(traj::Vec3 q, double radius,
                            std::vector<std::uint32_t>& out) const {
  if (!nodes_.empty()) query(0, q, radius, out);
}

}  // namespace mdtask::analysis
