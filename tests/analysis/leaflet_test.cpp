#include "mdtask/analysis/leaflet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "mdtask/traj/catalog.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

struct LfFixture {
  traj::Bilayer bilayer;
  double cutoff;

  explicit LfFixture(std::size_t atoms, std::uint64_t seed = 7) {
    traj::BilayerParams p;
    p.atoms = atoms;
    p.seed = seed;
    bilayer = traj::make_bilayer(p);
    cutoff = traj::default_cutoff(p);
  }
};

TEST(LeafletReferenceTest, FindsExactlyTwoLeaflets) {
  const LfFixture fx(600);
  const auto result = leaflet_finder_reference(fx.bilayer.positions,
                                               fx.cutoff);
  EXPECT_EQ(result.component_count, 2u);
  EXPECT_EQ(result.leaflet_a_size + result.leaflet_b_size, 600u);
  EXPECT_EQ(result.unassigned, 0u);
}

TEST(LeafletReferenceTest, LabelsMatchGroundTruth) {
  const LfFixture fx(400);
  const auto result = leaflet_finder_reference(fx.bilayer.positions,
                                               fx.cutoff);
  // All atoms with the same ground-truth leaflet share a component label
  // and the two leaflets have different labels.
  const auto label0 = result.labels[0];
  for (std::size_t i = 0; i < fx.bilayer.atoms(); ++i) {
    if (fx.bilayer.leaflet[i] == fx.bilayer.leaflet[0]) {
      EXPECT_EQ(result.labels[i], label0);
    } else {
      EXPECT_NE(result.labels[i], label0);
    }
  }
}

TEST(Chunks1dTest, CoverAllAtomsWithoutOverlap) {
  const auto chunks = make_1d_chunks(103, 8);
  ASSERT_EQ(chunks.size(), 8u);
  std::uint32_t expect_begin = 0;
  std::size_t total = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, expect_begin);
    expect_begin = c.end;
    total += c.size();
  }
  EXPECT_EQ(total, 103u);
}

TEST(Chunks1dTest, MorePartsThanAtomsClamps) {
  const auto chunks = make_1d_chunks(3, 100);
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.size();
  EXPECT_EQ(total, 3u);
}

TEST(Blocks2dTest, UpperTriangleCoverage) {
  const auto blocks = make_2d_blocks(100, 10);
  // largest g with g(g+1)/2 <= 10 => g = 4 => 10 blocks.
  EXPECT_EQ(blocks.size(), 10u);
  for (const auto& b : blocks) {
    EXPECT_LE(b.rows.begin, b.cols.begin);
  }
}

TEST(Blocks2dTest, PaperTaskCount) {
  // The paper uses 1024 map tasks; g = 44 gives 44*45/2 = 990 blocks,
  // the closest upper-triangular count not exceeding the request.
  const auto blocks = make_2d_blocks(131072, 1024);
  EXPECT_EQ(blocks.size(), 990u);
}

class LfApproachTest : public ::testing::TestWithParam<int> {};

TEST_P(LfApproachTest, AllApproachesMatchReference) {
  const LfFixture fx(500);
  const auto want =
      leaflet_finder_reference(fx.bilayer.positions, fx.cutoff);

  std::vector<Edge> edges;
  const int approach = GetParam();
  if (approach == 1) {
    for (const auto& chunk : make_1d_chunks(fx.bilayer.atoms(), 7)) {
      auto part = lf_edges_1d(fx.bilayer.positions, chunk, fx.cutoff);
      edges.insert(edges.end(), part.begin(), part.end());
    }
  } else {
    for (const auto& block : make_2d_blocks(fx.bilayer.atoms(), 12)) {
      auto part = approach == 4
                      ? lf_edges_tree(fx.bilayer.positions, block, fx.cutoff)
                      : lf_edges_2d(fx.bilayer.positions, block, fx.cutoff);
      edges.insert(edges.end(), part.begin(), part.end());
    }
  }
  // Deduplicate: approach 1 discovers each edge from both endpoints'
  // chunks only when chunks differ; with a<b emission it never does, but
  // sort for stable comparison anyway.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const auto labels =
      connected_components_union_find(fx.bilayer.atoms(), edges);
  const auto got = summarize_leaflets(labels);
  EXPECT_EQ(got.component_count, want.component_count);
  EXPECT_EQ(got.labels, want.labels);
}

INSTANTIATE_TEST_SUITE_P(Approaches, LfApproachTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(LfKernelTest, TreeAndCdistBlocksAgreeEdgeForEdge) {
  const LfFixture fx(300);
  for (const auto& block : make_2d_blocks(fx.bilayer.atoms(), 6)) {
    auto a = lf_edges_2d(fx.bilayer.positions, block, fx.cutoff);
    auto b = lf_edges_tree(fx.bilayer.positions, block, fx.cutoff);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(LfKernelTest, PartialComponentsPathMatchesEdgeGatherPath) {
  const LfFixture fx(450);
  std::vector<Edge> all_edges;
  std::vector<PartialComponents> parts;
  std::size_t diagonal = 0, off_diagonal = 0, empty = 0;
  for (const auto& block : make_2d_blocks(fx.bilayer.atoms(), 10)) {
    auto edges = lf_edges_2d(fx.bilayer.positions, block, fx.cutoff);
    parts.push_back(partial_components(edges));
    all_edges.insert(all_edges.end(), edges.begin(), edges.end());

    // The block-dense summary equals the hashed one element for element,
    // on the cdist kernel's edges and on the BallTree kernel's (which
    // come in another order).
    EXPECT_EQ(lf_partial_components(edges, block).vertex_root,
              parts.back().vertex_root);
    const auto tree_edges =
        lf_edges_tree(fx.bilayer.positions, block, fx.cutoff);
    EXPECT_EQ(lf_partial_components(tree_edges, block).vertex_root,
              partial_components(tree_edges).vertex_root);
    if (edges.empty()) {
      ++empty;
    } else if (block.diagonal()) {
      ++diagonal;
    } else {
      ++off_diagonal;
    }
  }
  EXPECT_GT(diagonal, 0u);
  EXPECT_GT(off_diagonal, 0u);
  EXPECT_GT(empty, 0u);
  const auto via_edges =
      connected_components_union_find(fx.bilayer.atoms(), all_edges);
  const auto via_parts =
      merge_partial_components(fx.bilayer.atoms(), parts);
  EXPECT_EQ(via_edges, via_parts);
}

TEST(LfKernelTest, BlockSummaryRejectsVertexOutsideBlock) {
  const BlockPair off{{0, 10}, {20, 30}};
  const std::vector<Edge> inside = {{2, 25}, {25, 29}, {0, 9}};
  EXPECT_EQ(lf_partial_components(inside, off).vertex_root,
            partial_components(inside).vertex_root);
  const std::vector<Edge> in_the_gap = {{2, 15}};
  EXPECT_THROW(lf_partial_components(in_the_gap, off),
               std::invalid_argument);
  const std::vector<Edge> past_cols = {{2, 30}};
  EXPECT_THROW(lf_partial_components(past_cols, off), std::invalid_argument);

  const BlockPair diag{{10, 20}, {10, 20}};
  const std::vector<Edge> below_rows = {{9, 12}};
  EXPECT_THROW(lf_partial_components(below_rows, diag),
               std::invalid_argument);
  const std::vector<Edge> past_rows = {{12, 20}};
  EXPECT_THROW(lf_partial_components(past_rows, diag),
               std::invalid_argument);

  // Columns before rows would break the slot order the output relies on.
  const BlockPair swapped{{20, 30}, {0, 10}};
  EXPECT_THROW(lf_partial_components(inside, swapped),
               std::invalid_argument);
}

TEST(LfKernelTest, BlockCdistBytesMatchShape) {
  BlockPair block{{0, 100}, {100, 300}};
  EXPECT_EQ(lf_block_cdist_bytes(block), 100u * 200u * 8u);
}

TEST(SummarizeTest, UnassignedCountsStrayAtoms) {
  // Components: {0,1,2}, {3,4}, {5} -> leaflets of 3 and 2, 1 stray.
  ComponentLabels labels = {0, 0, 0, 3, 3, 5};
  const auto s = summarize_leaflets(labels);
  EXPECT_EQ(s.component_count, 3u);
  EXPECT_EQ(s.leaflet_a_size, 3u);
  EXPECT_EQ(s.leaflet_b_size, 2u);
  EXPECT_EQ(s.unassigned, 1u);
}

}  // namespace
}  // namespace mdtask::analysis
