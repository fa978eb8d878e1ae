// Tests for the contiguity tester and hybrid graph set construction
// (paper §II-D, §III).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "graph/coarsen.hpp"
#include "graph/contiguity.hpp"
#include "graph/hybrid.hpp"
#include "hybrid_inputs.hpp"

namespace focus::graph {
namespace {

std::vector<std::uint32_t> uniform_lengths(std::size_t n, std::uint32_t len = 100) {
  return std::vector<std::uint32_t>(n, len);
}

// ---------------------------------------------------------------------------
// ContiguityTester
// ---------------------------------------------------------------------------

TEST(Contiguity, SimplePathIsContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 60);
  g.add_edge(1, 2, 55);
  g.add_edge(2, 3, 70);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}, &layout));
  ASSERT_EQ(layout.size(), 4u);
  EXPECT_EQ(layout[0].read, 0u);
  EXPECT_EQ(layout[0].overlap_to_next, 60);
  EXPECT_EQ(layout[3].read, 3u);
  EXPECT_EQ(layout[3].overlap_to_next, 0);
}

TEST(Contiguity, SubclusterOfPathIsContiguous) {
  Digraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(5));
  EXPECT_TRUE(tester.contiguous(std::vector<NodeId>{1, 2, 3}));
}

TEST(Contiguity, BranchIsNotContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(0, 2, 50);  // fork
  g.add_edge(1, 3, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Contiguity, DisconnectedClusterIsNotContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1}));
}

TEST(Contiguity, CycleIsNotContiguous) {
  Digraph g(3);
  g.add_edge(0, 1, 50);
  g.add_edge(1, 2, 50);
  g.add_edge(2, 0, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(3));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2}));
}

TEST(Contiguity, TransitiveEdgesDoNotBreakPath) {
  // 0->1->2 with the redundant transitive edge 0->2: still one contig.
  Digraph g(3);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(0, 2, 40);  // transitive
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(3));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2}, &layout));
  ASSERT_EQ(layout.size(), 3u);
  EXPECT_EQ(layout[1].read, 1u);
}

TEST(Contiguity, ContainedReadsExcludedFromPath) {
  Digraph g(4);
  g.add_edge(0, 1, 60);
  g.add_edge(1, 2, 60);
  g.mark_contained(3);  // floats inside the cluster without layout edges
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}, &layout));
  EXPECT_EQ(layout.size(), 3u);  // contained read not in the layout
}

TEST(Contiguity, SingletonAlwaysContiguous) {
  Digraph g(2);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(2));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{1}, &layout));
  ASSERT_EQ(layout.size(), 1u);
  EXPECT_EQ(layout[0].read, 1u);
}

TEST(Contiguity, AllContainedClusterUsesLongestRead) {
  Digraph g(3);
  g.mark_contained(0);
  g.mark_contained(1);
  g.mark_contained(2);
  g.finalize();
  ContiguityTester tester(g, {80, 120, 100});
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2}, &layout));
  ASSERT_EQ(layout.size(), 1u);
  EXPECT_EQ(layout[0].read, 1u);  // the longest
}

TEST(Contiguity, EmptyClusterNotContiguous) {
  Digraph g(1);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(1));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{}));
}

TEST(Contiguity, TwoParallelChainsNotContiguous) {
  // Two chains inside one cluster (e.g. fwd and rc strands).
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
}

// A read digraph shaped like a layout: a chain with transitive shortcuts,
// plus occasional stray edges (forks, back edges, self-loops) and contained
// reads, so clusters of consecutive reads are often but not always
// contiguous.
Digraph random_read_graph(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v + 1 < n) g.add_edge(v, v + 1, 60);
    if (v + 2 < n && rng.next_bool(0.5)) g.add_edge(v, v + 2, 40);
    if (rng.next_bool(0.04)) {
      g.add_edge(v, static_cast<NodeId>(rng.next_below(n)), 30);
    }
    if (rng.next_bool(0.05)) g.mark_contained(v);
  }
  g.finalize();
  return g;
}

// Clusters over n reads: windows of consecutive reads (mostly contiguous)
// and scattered subsets (mostly not).
std::vector<std::vector<NodeId>> random_clusters(std::uint64_t seed,
                                                 std::size_t n,
                                                 std::size_t count) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> clusters(count);
  for (auto& c : clusters) {
    const auto len = static_cast<NodeId>(1 + rng.next_below(24));
    if (rng.next_bool(0.7)) {
      const auto first = static_cast<NodeId>(rng.next_below(n - len + 1));
      for (NodeId v = first; v < first + len; ++v) c.push_back(v);
    } else {
      auto perm = rng.permutation(static_cast<std::uint32_t>(n));
      c.assign(perm.begin(), perm.begin() + len);
    }
  }
  return clusters;
}

TEST(Contiguity, ScratchReusedAcrossGraphsMatchesFreshTester) {
  // One scratch serves testers over two different graphs, alternating
  // queries between them (the smaller graph first, so the scratch also
  // grows mid-stream). Every answer, layout and work count must equal a
  // fresh tester's: a stamp or local index left by an earlier query on
  // either graph must never leak into a later one.
  const std::size_t sizes[2] = {90, 260};
  const Digraph graphs[2] = {random_read_graph(11, sizes[0]),
                             random_read_graph(12, sizes[1])};
  std::vector<std::uint32_t> lengths[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(100 + i);
    for (std::size_t v = 0; v < sizes[i]; ++v) {
      lengths[i].push_back(static_cast<std::uint32_t>(rng.next_in(80, 120)));
    }
  }
  const ContiguityTester testers[2] = {
      ContiguityTester(graphs[0], lengths[0]),
      ContiguityTester(graphs[1], lengths[1])};
  const auto clusters0 = random_clusters(21, sizes[0], 300);
  const auto clusters1 = random_clusters(22, sizes[1], 300);

  ContiguityScratch shared;
  std::size_t contiguous_count = 0;
  for (std::size_t q = 0; q < 600; ++q) {
    const int which = static_cast<int>(q % 2);
    const auto& cluster = which == 0 ? clusters0[q / 2] : clusters1[q / 2];
    SCOPED_TRACE("query " + std::to_string(q));

    std::vector<LayoutStep> reused_layout;
    const bool reused =
        testers[which].contiguous(cluster, shared, &reused_layout);
    const double reused_work = shared.take_work();

    ContiguityTester fresh(graphs[which], lengths[which]);
    std::vector<LayoutStep> fresh_layout;
    ASSERT_EQ(reused, fresh.contiguous(cluster, &fresh_layout));
    EXPECT_EQ(reused_work, fresh.work());
    ASSERT_EQ(reused_layout.size(), fresh_layout.size());
    for (std::size_t i = 0; i < fresh_layout.size(); ++i) {
      EXPECT_EQ(reused_layout[i].read, fresh_layout[i].read);
      EXPECT_EQ(reused_layout[i].overlap_to_next,
                fresh_layout[i].overlap_to_next);
    }
    contiguous_count += reused ? 1 : 0;
  }
  // Both answers occur, so the comparison covers layouts and rejections.
  EXPECT_GT(contiguous_count, 100u);
  EXPECT_LT(contiguous_count, 500u);
}

// ---------------------------------------------------------------------------
// Hybrid graph set
// ---------------------------------------------------------------------------

// A linear read chain: coarsening produces clusters that are all contiguous,
// so representatives come from coarse levels and the hybrid graph is small.
struct LinearFixture {
  Graph g0;
  Digraph reads;
  GraphHierarchy ml;

  explicit LinearFixture(std::size_t n) : reads(n) {
    GraphBuilder b(n);
    for (NodeId v = 0; v + 1 < n; ++v) {
      b.add_edge(v, v + 1, 60);
      reads.add_edge(v, v + 1, 60);
    }
    reads.finalize();
    g0 = b.build();
    CoarsenConfig cfg;
    cfg.min_nodes = 4;
    cfg.max_levels = 6;
    ml = build_multilevel(g0, cfg);
  }
};

TEST(Hybrid, LinearChainCollapsesToFewRepresentatives) {
  LinearFixture fx(64);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(64));
  // Every cluster of a pure chain is contiguous, so representatives come
  // from the coarsest level.
  EXPECT_EQ(hybrid.hierarchy.depth(), fx.ml.depth());
  EXPECT_LT(hybrid.hybrid_graph().node_count(), fx.ml.levels[0].node_count());
  EXPECT_EQ(hybrid.hybrid_graph().node_count(),
            fx.ml.coarsest().node_count());
}

TEST(Hybrid, ClusterReadsPartitionAllReads) {
  LinearFixture fx(48);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(48));
  std::set<NodeId> seen;
  for (NodeId h = 0; h < hybrid.cluster_reads.size(); ++h) {
    for (const NodeId r : hybrid.cluster_reads[h]) {
      EXPECT_TRUE(seen.insert(r).second) << "read in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), 48u);
}

TEST(Hybrid, NodeWeightsMatchClusterSizes) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  const Graph& hg = hybrid.hybrid_graph();
  ASSERT_EQ(hg.node_count(), hybrid.cluster_reads.size());
  for (NodeId h = 0; h < hg.node_count(); ++h) {
    EXPECT_EQ(hg.node_weight(h),
              static_cast<Weight>(hybrid.cluster_reads[h].size()));
  }
  EXPECT_EQ(hg.total_node_weight(), fx.g0.total_node_weight());
}

TEST(Hybrid, LayoutsCoverEveryHybridNode) {
  LinearFixture fx(40);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(40));
  ASSERT_EQ(hybrid.layouts.size(), hybrid.cluster_reads.size());
  for (NodeId h = 0; h < hybrid.layouts.size(); ++h) {
    EXPECT_FALSE(hybrid.layouts[h].empty());
    // Layout reads are cluster members.
    const std::set<NodeId> members(hybrid.cluster_reads[h].begin(),
                                   hybrid.cluster_reads[h].end());
    for (const auto& step : hybrid.layouts[h]) {
      EXPECT_TRUE(members.contains(step.read));
    }
  }
}

TEST(Hybrid, ParentMapsAreConsistent) {
  LinearFixture fx(64);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(64));
  const auto& h = hybrid.hierarchy;
  ASSERT_EQ(h.parent.size(), h.depth() - 1);
  for (std::size_t l = 0; l + 1 < h.depth(); ++l) {
    ASSERT_EQ(h.parent[l].size(), h.levels[l].node_count());
    Weight child_weight_sum = 0;
    std::vector<Weight> parent_weight(h.levels[l + 1].node_count(), 0);
    for (NodeId v = 0; v < h.levels[l].node_count(); ++v) {
      ASSERT_LT(h.parent[l][v], h.levels[l + 1].node_count());
      parent_weight[h.parent[l][v]] += h.levels[l].node_weight(v);
      child_weight_sum += h.levels[l].node_weight(v);
    }
    for (NodeId p = 0; p < h.levels[l + 1].node_count(); ++p) {
      EXPECT_EQ(parent_weight[p], h.levels[l + 1].node_weight(p));
    }
    EXPECT_EQ(child_weight_sum, h.levels[l + 1].total_node_weight());
  }
}

TEST(Hybrid, BranchingForcesFinerRepresentatives) {
  // A cross/star topology in the read digraph: coarse clusters spanning the
  // branch cannot be contiguous, so they must expand toward finer levels.
  const std::size_t n = 33;
  Digraph reads(n);
  GraphBuilder b(n);
  // Chain 0..15, chain 16..31, both feeding node 32 (a junction).
  for (NodeId v = 0; v + 1 < 16; ++v) {
    b.add_edge(v, v + 1, 60);
    reads.add_edge(v, v + 1, 60);
  }
  for (NodeId v = 16; v + 1 < 32; ++v) {
    b.add_edge(v, v + 1, 60);
    reads.add_edge(v, v + 1, 60);
  }
  b.add_edge(15, 32, 50);
  reads.add_edge(15, 32, 50);
  b.add_edge(31, 32, 50);
  reads.add_edge(31, 32, 50);
  reads.finalize();
  const Graph g0 = b.build();
  CoarsenConfig cfg;
  cfg.min_nodes = 2;
  cfg.max_levels = 8;
  const auto ml = build_multilevel(g0, cfg);
  const auto hybrid = build_hybrid(ml, reads, uniform_lengths(n));
  // The junction prevents total collapse: more hybrid nodes than coarsest
  // nodes, fewer than reads.
  EXPECT_GT(hybrid.hybrid_graph().node_count(), ml.coarsest().node_count());
  EXPECT_LT(hybrid.hybrid_graph().node_count(), n);
  // Representative level histogram sums to the hybrid node count.
  std::size_t reps = 0;
  for (const auto count : hybrid.reps_per_level) reps += count;
  EXPECT_EQ(reps, hybrid.hybrid_graph().node_count());
}

TEST(Hybrid, ProjectToReadsAssignsEveryRead) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  std::vector<PartId> parts(hybrid.hybrid_graph().node_count());
  for (NodeId h = 0; h < parts.size(); ++h) {
    parts[h] = static_cast<PartId>(h % 4);
  }
  const auto read_parts = hybrid.project_to_reads(parts, 32);
  ASSERT_EQ(read_parts.size(), 32u);
  for (NodeId r = 0; r < 32; ++r) {
    EXPECT_NE(read_parts[r], kNoPart);
    // The read's partition equals its cluster's partition.
  }
  for (NodeId h = 0; h < hybrid.cluster_reads.size(); ++h) {
    for (const NodeId r : hybrid.cluster_reads[h]) {
      EXPECT_EQ(read_parts[r], parts[h]);
    }
  }
}

TEST(Hybrid, HybridEdgesReflectFinestEdges) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  const Graph& hg = hybrid.hybrid_graph();
  // A chain's hybrid graph is itself a chain: edge count = node count - 1
  // (single component, no extra edges).
  EXPECT_EQ(hg.edge_count(), hg.node_count() - 1);
  // Total edge weight = G0 total minus weight internal to clusters.
  EXPECT_LE(hg.total_edge_weight(), fx.g0.total_edge_weight());
}

TEST(Hybrid, SingleLevelHierarchy) {
  // Edge case: multilevel set with only G0 (no coarsening possible).
  GraphBuilder b(3);
  const Graph g0 = b.build();  // no edges
  GraphHierarchy ml;
  ml.levels.push_back(g0);
  Digraph reads(3);
  reads.finalize();
  const auto hybrid = build_hybrid(ml, reads, uniform_lengths(3));
  EXPECT_EQ(hybrid.hierarchy.depth(), 1u);
  EXPECT_EQ(hybrid.hybrid_graph().node_count(), 3u);
  for (const auto& layout : hybrid.layouts) {
    EXPECT_EQ(layout.size(), 1u);
  }
}

TEST(Hybrid, GoldenD1DigestAndSelectionWork) {
  // Pinned from the unordered_map contiguity tester with depth-first
  // selection that preceded the flat tester: the rewrite must select the
  // same representatives, build the same hybrid set and charge the same work.
  const auto in = test::make_hybrid_inputs(1, /*scale=*/0.15,
                                              /*coverage=*/6.0);
  const auto hybrid =
      build_hybrid(in.multilevel, in.read_graph, in.read_lengths);
  ASSERT_EQ(hybrid.hierarchy.depth(), 11u);
  EXPECT_EQ(hybrid.hybrid_graph().node_count(), 164u);
  EXPECT_EQ(test::digest_of(hybrid).hex(),
            "3bdf523eaa447bdcc9a5beec6fd3822f");
  EXPECT_EQ(hybrid.selection_work, 729473.0);
}

}  // namespace
}  // namespace focus::graph
