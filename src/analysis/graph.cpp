#include "mdtask/analysis/graph.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mdtask::analysis {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0), sets_(n) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

std::uint32_t UnionFind::find(std::uint32_t x) noexcept {
  // Path halving: every visited node points to its grandparent.
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::uint32_t a, std::uint32_t b) noexcept {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
  --sets_;
  return true;
}

void canonicalize_labels(ComponentLabels& labels) {
  // Map each label to the smallest vertex id that carries it.
  std::unordered_map<std::uint32_t, std::uint32_t> min_id;
  min_id.reserve(labels.size() / 4 + 1);
  for (std::uint32_t v = 0; v < labels.size(); ++v) {
    auto [it, inserted] = min_id.try_emplace(labels[v], v);
    if (!inserted) it->second = std::min(it->second, v);
  }
  for (auto& l : labels) l = min_id[l];
}

ComponentLabels connected_components_union_find(std::size_t n_vertices,
                                                std::span<const Edge> edges) {
  UnionFind uf(n_vertices);
  for (const Edge& e : edges) uf.unite(e.a, e.b);
  ComponentLabels labels(n_vertices);
  for (std::uint32_t v = 0; v < n_vertices; ++v) labels[v] = uf.find(v);
  canonicalize_labels(labels);
  return labels;
}

ComponentLabels connected_components_bfs(std::size_t n_vertices,
                                         std::span<const Edge> edges) {
  // CSR adjacency.
  std::vector<std::uint32_t> degree(n_vertices, 0);
  for (const Edge& e : edges) {
    ++degree[e.a];
    ++degree[e.b];
  }
  std::vector<std::size_t> offset(n_vertices + 1, 0);
  std::partial_sum(degree.begin(), degree.end(), offset.begin() + 1);
  std::vector<std::uint32_t> adj(offset.back());
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  for (const Edge& e : edges) {
    adj[cursor[e.a]++] = e.b;
    adj[cursor[e.b]++] = e.a;
  }

  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  ComponentLabels labels(n_vertices, kUnvisited);
  std::deque<std::uint32_t> frontier;
  for (std::uint32_t start = 0; start < n_vertices; ++start) {
    if (labels[start] != kUnvisited) continue;
    labels[start] = start;
    frontier.push_back(start);
    while (!frontier.empty()) {
      const std::uint32_t v = frontier.front();
      frontier.pop_front();
      for (std::size_t i = offset[v]; i < offset[v + 1]; ++i) {
        const std::uint32_t w = adj[i];
        if (labels[w] == kUnvisited) {
          labels[w] = start;
          frontier.push_back(w);
        }
      }
    }
  }
  // BFS labels are already min-id canonical because starts scan upward,
  // but canonicalize anyway to keep the postcondition explicit.
  canonicalize_labels(labels);
  return labels;
}

PartialComponents partial_components(std::span<const Edge> edges) {
  // Compress the touched-vertex set, run union-find on the compressed
  // ids, then report min-id roots in original vertex numbering.
  std::unordered_map<std::uint32_t, std::uint32_t> dense;
  dense.reserve(edges.size() * 2);
  std::vector<std::uint32_t> verts;
  auto intern = [&](std::uint32_t v) {
    auto [it, inserted] =
        dense.try_emplace(v, static_cast<std::uint32_t>(verts.size()));
    if (inserted) verts.push_back(v);
    return it->second;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> local_edges;
  local_edges.reserve(edges.size());
  for (const Edge& e : edges) {
    local_edges.emplace_back(intern(e.a), intern(e.b));
  }
  UnionFind uf(verts.size());
  for (auto [a, b] : local_edges) uf.unite(a, b);

  // Min original id per local root.
  std::vector<std::uint32_t> min_id(verts.size(), 0xffffffffu);
  for (std::uint32_t i = 0; i < verts.size(); ++i) {
    const std::uint32_t root = uf.find(i);
    min_id[root] = std::min(min_id[root], verts[i]);
  }
  PartialComponents out;
  out.vertex_root.reserve(verts.size());
  for (std::uint32_t i = 0; i < verts.size(); ++i) {
    out.vertex_root.push_back({verts[i], min_id[uf.find(i)]});
  }
  std::sort(out.vertex_root.begin(), out.vertex_root.end());
  return out;
}

ComponentLabels merge_partial_components(
    std::size_t n_vertices, std::span<const PartialComponents> parts) {
  UnionFind uf(n_vertices);
  for (const PartialComponents& part : parts) {
    for (const VertexRoot& vr : part.vertex_root) uf.unite(vr.vertex, vr.root);
  }
  ComponentLabels labels(n_vertices);
  for (std::uint32_t v = 0; v < n_vertices; ++v) labels[v] = uf.find(v);
  canonicalize_labels(labels);
  return labels;
}

namespace {

void require_sorted_unique(std::span<const VertexRoot> s) {
  const auto bad = std::adjacent_find(
      s.begin(), s.end(), [](const VertexRoot& x, const VertexRoot& y) {
        return x.vertex >= y.vertex;
      });
  if (bad != s.end()) {
    throw std::invalid_argument(
        "merge_partials_pairwise: summary not sorted by unique vertex");
  }
}

/// Unites every entry of summary `s` with its root's entry, over the
/// union positions `pos` of its entries. The root's entry is found by
/// binary search, reused across a run of equal roots.
void unite_with_roots(std::span<const VertexRoot> s,
                      std::span<const std::uint32_t> pos, UnionFind& uf) {
  std::size_t root_at = 0;
  for (std::size_t k = 0; k < s.size(); ++k) {
    const std::uint32_t root = s[k].root;
    if (k == 0 || root != s[k - 1].root) {
      const auto it = std::lower_bound(
          s.begin(), s.end(), root,
          [](const VertexRoot& x, std::uint32_t v) { return x.vertex < v; });
      if (it == s.end() || it->vertex != root) {
        throw std::invalid_argument(
            "merge_partials_pairwise: root " + std::to_string(root) +
            " has no entry of its own");
      }
      root_at = static_cast<std::size_t>(it - s.begin());
    }
    uf.unite(pos[k], pos[root_at]);
  }
}

}  // namespace

PartialComponents merge_partials_pairwise(const PartialComponents& a,
                                          const PartialComponents& b) {
  const std::span<const VertexRoot> as = a.vertex_root;
  const std::span<const VertexRoot> bs = b.vertex_root;
  require_sorted_unique(as);
  require_sorted_unique(bs);

  // The union's sorted vertex list, and each entry's position in it.
  std::vector<std::uint32_t> verts;
  verts.reserve(as.size() + bs.size());
  std::vector<std::uint32_t> pos_a(as.size());
  std::vector<std::uint32_t> pos_b(bs.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < as.size() || j < bs.size()) {
    const bool take_a =
        j == bs.size() || (i < as.size() && as[i].vertex <= bs[j].vertex);
    const bool take_b =
        i == as.size() || (j < bs.size() && bs[j].vertex <= as[i].vertex);
    const auto at = static_cast<std::uint32_t>(verts.size());
    verts.push_back(take_a ? as[i].vertex : bs[j].vertex);
    if (take_a) pos_a[i++] = at;
    if (take_b) pos_b[j++] = at;
  }

  UnionFind uf(verts.size());
  unite_with_roots(as, pos_a, uf);
  unite_with_roots(bs, pos_b, uf);

  // Positions ascend with vertex ids, so the first position met in each
  // set is its smallest: the set's min-id root.
  constexpr std::uint32_t kUnseen = 0xffffffffu;
  std::vector<std::uint32_t> first(verts.size(), kUnseen);
  PartialComponents out;
  out.vertex_root.resize(verts.size());
  for (std::uint32_t p = 0; p < verts.size(); ++p) {
    std::uint32_t& min_pos = first[uf.find(p)];
    if (min_pos == kUnseen) min_pos = p;
    out.vertex_root[p] = {verts[p], verts[min_pos]};
  }
  return out;
}

PartialComponents merge_partials_by_edges(const PartialComponents& a,
                                          const PartialComponents& b) {
  // Treat each (vertex, root) entry as an edge vertex--root and rerun the
  // compressed union-find over the union. Associativity follows from
  // union-find joining exactly the pairs both summaries assert.
  std::vector<Edge> as_edges;
  as_edges.reserve(a.vertex_root.size() + b.vertex_root.size());
  for (const VertexRoot& vr : a.vertex_root) {
    as_edges.push_back({std::min(vr.vertex, vr.root),
                        std::max(vr.vertex, vr.root)});
  }
  for (const VertexRoot& vr : b.vertex_root) {
    as_edges.push_back({std::min(vr.vertex, vr.root),
                        std::max(vr.vertex, vr.root)});
  }
  return partial_components(as_edges);
}

std::size_t component_count(const ComponentLabels& labels) {
  std::vector<std::uint32_t> uniq(labels.begin(), labels.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  return uniq.size();
}

}  // namespace mdtask::analysis
