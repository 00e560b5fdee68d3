#include "mdtask/analysis/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mdtask/common/rng.h"

namespace mdtask::analysis {
namespace {

std::vector<Edge> random_edges(std::size_t n_vertices, std::size_t n_edges,
                               std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Edge> edges;
  edges.reserve(n_edges);
  while (edges.size() < n_edges) {
    auto a = static_cast<std::uint32_t>(rng.bounded(n_vertices));
    auto b = static_cast<std::uint32_t>(rng.bounded(n_vertices));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    edges.push_back({a, b});
  }
  return edges;
}

TEST(UnionFindTest, InitiallyAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
}

TEST(UnionFindTest, UniteMergesAndCounts) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));  // already together
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.set_count(), 2u);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_EQ(uf.set_count(), 1u);
}

TEST(ConnectedComponentsTest, NoEdgesAllSingletons) {
  const auto labels = connected_components_union_find(4, {});
  EXPECT_EQ(component_count(labels), 4u);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_EQ(labels[v], v);
}

TEST(ConnectedComponentsTest, ChainIsOneComponent) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const auto labels = connected_components_union_find(4, edges);
  EXPECT_EQ(component_count(labels), 1u);
  for (auto l : labels) EXPECT_EQ(l, 0u);
}

TEST(ConnectedComponentsTest, TwoComponentsCanonicalLabels) {
  const std::vector<Edge> edges = {{0, 2}, {1, 3}};
  const auto labels = connected_components_union_find(4, edges);
  EXPECT_EQ(component_count(labels), 2u);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[3], 1u);
}

TEST(ConnectedComponentsTest, UnionFindEqualsBfsOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto edges = random_edges(200, 150, seed);
    const auto a = connected_components_union_find(200, edges);
    const auto b = connected_components_bfs(200, edges);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(PartialComponentsTest, SummaryCoversTouchedVerticesOnly) {
  const std::vector<Edge> edges = {{5, 9}, {9, 12}};
  const auto part = partial_components(edges);
  ASSERT_EQ(part.vertex_root.size(), 3u);
  for (const VertexRoot& vr : part.vertex_root) EXPECT_EQ(vr.root, 5u);
}

TEST(PartialComponentsTest, MergeEqualsGlobalComputation) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto edges = random_edges(300, 250, seed);
    const auto want = connected_components_union_find(300, edges);

    // Split edges into 4 arbitrary partitions (as block map tasks would).
    std::vector<std::vector<Edge>> splits(4);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      splits[i % 4].push_back(edges[i]);
    }
    std::vector<PartialComponents> parts;
    for (const auto& split : splits) {
      parts.push_back(partial_components(split));
    }
    const auto got = merge_partial_components(300, parts);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(PartialComponentsTest, ShuffleVolumeSmallerThanEdges) {
  // The point of approach 3 (Table 2): partial components shuffle O(n)
  // instead of O(E). With a dense block, the summary must be smaller.
  const auto edges = random_edges(100, 2000, 3);
  const auto part = partial_components(edges);
  EXPECT_LT(part.byte_size(), edges.size() * sizeof(Edge));
}

TEST(CanonicalizeTest, MapsLabelsToMinVertex) {
  ComponentLabels labels = {7, 7, 9, 9, 7};
  canonicalize_labels(labels);
  EXPECT_EQ(labels, (ComponentLabels{0, 0, 2, 2, 0}));
}

TEST(ComponentCountTest, CountsDistinct) {
  EXPECT_EQ(component_count({0, 0, 2, 2, 4}), 3u);
  EXPECT_EQ(component_count({}), 0u);
}

TEST(ConnectedComponentsTest, SelfContainedDenseBlockMergesToOne) {
  // Complete graph on 10 vertices split across 3 partials still one comp.
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < 10; ++i) {
    for (std::uint32_t j = i + 1; j < 10; ++j) edges.push_back({i, j});
  }
  std::vector<PartialComponents> parts;
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<Edge> slice;
    for (std::size_t i = k; i < edges.size(); i += 3) {
      slice.push_back(edges[i]);
    }
    parts.push_back(partial_components(slice));
  }
  const auto labels = merge_partial_components(10, parts);
  EXPECT_EQ(component_count(labels), 1u);
}

TEST(PartialMergeTest, PairwiseTreeMergeEqualsFlatMerge) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto edges = random_edges(250, 300, seed);
    std::vector<PartialComponents> parts;
    for (std::size_t k = 0; k < 5; ++k) {
      std::vector<Edge> slice;
      for (std::size_t i = k; i < edges.size(); i += 5) {
        slice.push_back(edges[i]);
      }
      parts.push_back(partial_components(slice));
    }
    // Tree merge.
    while (parts.size() > 1) {
      std::vector<PartialComponents> next;
      for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
        next.push_back(merge_partials_pairwise(parts[i], parts[i + 1]));
      }
      if (parts.size() % 2 == 1) next.push_back(parts.back());
      parts = std::move(next);
    }
    const auto tree = merge_partial_components(250, parts);
    const auto flat = connected_components_union_find(250, edges);
    EXPECT_EQ(tree, flat) << "seed " << seed;
  }
}

TEST(PartialMergeTest, MergeWithEmptyIsIdentity) {
  const std::vector<Edge> edges = {{1, 2}, {2, 3}};
  const auto part = partial_components(edges);
  const auto merged = merge_partials_pairwise(part, PartialComponents{});
  EXPECT_EQ(merged.vertex_root, part.vertex_root);
}

/// Summary of random edges over vertices [lo, lo + span * stride), every
/// vertex id a multiple of `stride` offset by lo.
PartialComponents random_summary(std::uint32_t lo, std::uint32_t span,
                                 std::uint32_t stride, std::size_t n_edges,
                                 std::uint64_t seed) {
  auto edges = random_edges(span, n_edges, seed);
  for (Edge& e : edges) {
    e = {lo + e.a * stride, lo + e.b * stride};
  }
  return partial_components(edges);
}

TEST(PartialMergeTest, LinearMergeEqualsEdgeRoundTrip) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto edges = random_edges(400, 120 + 40 * seed, 100 + seed);
    const std::vector<Edge> half(edges.begin(),
                                 edges.begin() + edges.size() / 2);
    const PartialComponents whole = partial_components(edges);
    const std::vector<std::pair<PartialComponents, PartialComponents>>
        pairs = {
            {PartialComponents{}, PartialComponents{}},  // empty
            {whole, PartialComponents{}},
            {random_summary(0, 200, 1, 150, seed),  // disjoint ranges
             random_summary(500, 200, 1, 150, seed + 1)},
            {whole, whole},  // identical
            {random_summary(0, 300, 2, 200, seed),  // interleaved ids
             random_summary(1, 300, 2, 200, seed + 2)},
            {random_summary(0, 400, 1, 180, seed),  // overlapping
             random_summary(0, 400, 1, 180, seed + 3)},
            {whole, partial_components(half)},  // subset
        };
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto& [a, b] = pairs[k];
      const auto expected = merge_partials_by_edges(a, b).vertex_root;
      EXPECT_EQ(merge_partials_pairwise(a, b).vertex_root, expected)
          << "seed " << seed << " pair " << k;
      EXPECT_EQ(merge_partials_pairwise(b, a).vertex_root, expected)
          << "seed " << seed << " pair " << k << " (commuted)";
    }
    const PartialComponents a = random_summary(0, 300, 1, 140, seed);
    const PartialComponents b = random_summary(100, 300, 1, 140, seed + 4);
    const PartialComponents c = random_summary(50, 300, 2, 140, seed + 5);
    EXPECT_EQ(merge_partials_pairwise(merge_partials_pairwise(a, b), c)
                  .vertex_root,
              merge_partials_pairwise(a, merge_partials_pairwise(b, c))
                  .vertex_root)
        << "seed " << seed;
  }
}

TEST(PartialMergeTest, OutOfContractSummaryThrows) {
  const auto good = partial_components(std::vector<Edge>{{1, 2}, {2, 3}});
  PartialComponents unsorted;
  unsorted.vertex_root = {{5, 5}, {3, 3}};
  PartialComponents duplicate;
  duplicate.vertex_root = {{3, 3}, {3, 3}};
  PartialComponents rootless;  // root 2 has no entry of its own
  rootless.vertex_root = {{4, 2}, {6, 2}};
  for (const PartialComponents* bad : {&unsorted, &duplicate, &rootless}) {
    EXPECT_THROW(merge_partials_pairwise(*bad, good), std::invalid_argument);
    EXPECT_THROW(merge_partials_pairwise(good, *bad), std::invalid_argument);
  }
}

TEST(PartialMergeTest, LabelsFromEmptyPartialAllSingletons) {
  const std::vector<PartialComponents> one_empty(1);
  const auto labels = merge_partial_components(5, one_empty);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_EQ(labels[v], v);
}

}  // namespace
}  // namespace mdtask::analysis
