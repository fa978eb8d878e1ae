#include "graph/hybrid.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace focus::graph {

std::vector<PartId> HybridGraphSet::project_to_reads(
    const std::vector<PartId>& hybrid_parts, std::size_t read_count) const {
  FOCUS_CHECK(hybrid_parts.size() == hybrid_graph().node_count(),
              "partition size does not match hybrid graph");
  std::vector<PartId> read_parts(read_count, kNoPart);
  for (NodeId h = 0; h < cluster_reads.size(); ++h) {
    for (const NodeId read : cluster_reads[h]) {
      FOCUS_ASSERT(read < read_count, "cluster read out of range");
      read_parts[read] = hybrid_parts[h];
    }
  }
  return read_parts;
}

namespace {

// Tester scratches owned by one build_hybrid call. A pool chunk checks one
// out and hands it back, so no more exist than chunks ever ran at once, and
// none outlives the call.
class ScratchPool {
 public:
  std::unique_ptr<ContiguityScratch> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<ContiguityScratch>();
    auto scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void release(std::unique_ptr<ContiguityScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ContiguityScratch>> free_;
};

// Representative marks and layouts, indexed [multilevel level][node].
struct Selection {
  std::vector<std::vector<bool>> is_rep;
  std::vector<std::vector<std::vector<LayoutStep>>> layouts;  // reps only
  std::vector<std::size_t> reps_per_level;
  double work = 0.0;
};

// Top-down selection, one level at a time: every frontier cluster of a level
// is tested in one pool pass, then the results are merged in frontier order
// and the children of the non-contiguous nodes become the next frontier.
// Each test reads only its own cluster and writes only its own slot, so the
// selection does not depend on the pool width; the work units are integers
// far below 2^53, so their sum is exact in any order.
Selection select_representatives(
    const GraphHierarchy& ml,
    const std::vector<std::vector<std::vector<NodeId>>>& clusters,
    const ContiguityTester& tester, ThreadPool& pool) {
  const std::size_t depth = ml.depth();
  Selection sel;
  sel.is_rep.resize(depth);
  sel.layouts.resize(depth);
  sel.reps_per_level.assign(depth, 0);
  for (std::size_t l = 0; l < depth; ++l) {
    sel.is_rep[l].assign(ml.levels[l].node_count(), false);
    sel.layouts[l].resize(ml.levels[l].node_count());
  }

  // children[l][v] = level-l nodes whose parent (level l+1) is v.
  std::vector<std::vector<std::vector<NodeId>>> children(depth);
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    children[l + 1].resize(ml.levels[l + 1].node_count());
    for (NodeId v = 0; v < ml.levels[l].node_count(); ++v) {
      children[l + 1][ml.parent[l][v]].push_back(v);
    }
  }

  struct Tested {
    bool contiguous = false;
    double work = 0.0;
    std::vector<LayoutStep> layout;
  };
  ScratchPool scratches;
  const std::size_t top = depth - 1;
  std::vector<NodeId> frontier(ml.levels[top].node_count());
  std::iota(frontier.begin(), frontier.end(), NodeId{0});
  for (std::size_t l = top;; --l) {
    std::vector<Tested> tested(frontier.size());
    const std::size_t grain =
        std::max<std::size_t>(1, frontier.size() / (16 * pool.thread_count()));
    pool.parallel_for(frontier.size(), grain,
                      [&](std::size_t begin, std::size_t end) {
                        auto scratch = scratches.acquire();
                        for (std::size_t i = begin; i < end; ++i) {
                          Tested& t = tested[i];
                          t.contiguous = tester.contiguous(
                              clusters[l][frontier[i]], *scratch, &t.layout);
                          t.work = scratch->take_work();
                        }
                        scratches.release(std::move(scratch));
                      });

    std::vector<NodeId> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const NodeId v = frontier[i];
      sel.work += tested[i].work;
      if (tested[i].contiguous) {
        sel.is_rep[l][v] = true;
        sel.layouts[l][v] = std::move(tested[i].layout);
        ++sel.reps_per_level[l];
      } else {
        FOCUS_ASSERT(l > 0, "single-read cluster must be contiguous");
        next.insert(next.end(), children[l][v].begin(), children[l][v].end());
      }
    }
    if (l == 0) break;
    frontier = std::move(next);
  }
  return sel;
}

}  // namespace

HybridGraphSet build_hybrid(const GraphHierarchy& ml,
                            const Digraph& read_graph,
                            std::vector<std::uint32_t> read_lengths,
                            unsigned threads) {
  FOCUS_CHECK(ml.depth() >= 1, "multilevel set is empty");
  const std::size_t depth = ml.depth();

  ThreadPool pool(threads);

  // Reads of every multilevel node, per level: the contiguity tests' input
  // and, for the representatives, the G'0 clusters.
  std::vector<std::vector<std::vector<NodeId>>> clusters(depth);
  pool.parallel_for(depth, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t l = begin; l < end; ++l) {
      clusters[l] = ml.expand_clusters(l);
    }
  });

  const ContiguityTester tester(read_graph, std::move(read_lengths));
  Selection sel = select_representatives(ml, clusters, tester, pool);

  HybridGraphSet out;
  out.reps_per_level = sel.reps_per_level;
  out.origin.resize(depth);
  out.hierarchy.levels.resize(depth);
  out.hierarchy.parent.resize(depth - 1);

  // cover[v] = the representative on the ancestor-or-self chain of
  // multilevel node (l, v), if any (at most one: a representative's
  // descendants are never tested). Computed top-down from the level above.
  // Hybrid level l gets one node per distinct anchor — the covering
  // representative, else (l, v) itself — numbered in order of first
  // occurrence over v; origin[l] records each node's anchor.
  // ml_to_hybrid[l][v] = hybrid node id (at hybrid level l) of ml node (l,v).
  std::vector<std::vector<NodeId>> ml_to_hybrid(depth);
  // rep_slot[j][u]: hybrid id of representative (j, u) at the level being
  // numbered, valid when its level field equals that level.
  struct RepSlot {
    std::uint32_t level = kInvalidNode;
    NodeId hybrid = kInvalidNode;
  };
  std::vector<std::vector<RepSlot>> rep_slot(depth);
  std::vector<HybridOrigin> cover_above;
  for (std::size_t l = depth; l-- > 0;) {
    const std::size_t n = ml.levels[l].node_count();
    const auto level = static_cast<std::uint32_t>(l);
    std::vector<HybridOrigin> cover(n);
    for (NodeId v = 0; v < n; ++v) {
      if (sel.is_rep[l][v]) {
        cover[v] = HybridOrigin{level, v};
      } else if (l + 1 < depth) {
        cover[v] = cover_above[ml.parent[l][v]];
      }
    }
    rep_slot[l].resize(n);
    ml_to_hybrid[l].assign(n, kInvalidNode);
    auto& origin = out.origin[l];
    for (NodeId v = 0; v < n; ++v) {
      const HybridOrigin c = cover[v];
      if (c.ml_node == kInvalidNode || c.ml_level == level) {
        // Uncovered, or a representative of this level: its own node.
        ml_to_hybrid[l][v] = static_cast<NodeId>(origin.size());
        origin.push_back(HybridOrigin{level, v});
        continue;
      }
      RepSlot& slot = rep_slot[c.ml_level][c.ml_node];
      if (slot.level != level) {
        slot = RepSlot{level, static_cast<NodeId>(origin.size())};
        origin.push_back(c);
      }
      ml_to_hybrid[l][v] = slot.hybrid;
    }
    cover_above = std::move(cover);
  }

  // Build each hybrid level's graph; the levels are independent.
  pool.parallel_for(depth, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t l = begin; l < end; ++l) {
      const Graph& mlg = ml.levels[l];
      const std::size_t hn = out.origin[l].size();
      GraphBuilder builder(hn);
      std::vector<Weight> node_weight(hn, 0);
      for (NodeId v = 0; v < mlg.node_count(); ++v) {
        node_weight[ml_to_hybrid[l][v]] += mlg.node_weight(v);
      }
      for (NodeId h = 0; h < hn; ++h) {
        builder.set_node_weight(h, node_weight[h]);
      }
      for (NodeId v = 0; v < mlg.node_count(); ++v) {
        for (const Edge& e : mlg.neighbors(v)) {
          if (e.to < v) continue;
          const NodeId hu = ml_to_hybrid[l][v];
          const NodeId hv = ml_to_hybrid[l][e.to];
          if (hu == hv) continue;
          builder.add_edge(hu, hv, e.weight);
        }
      }
      out.hierarchy.levels[l] = builder.build();
    }
  });

  // Hybrid parent maps. A hybrid node at level l with origin (j, u):
  //   j > l  : it persists at level l+1 with the same origin;
  //   j == l : its multilevel parent's hybrid node at level l+1 is its parent.
  // Both read off any multilevel node v it contains: v's multilevel parent
  // is covered by (j, u) in the first case and is u's parent in the second.
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    auto& parent = out.hierarchy.parent[l];
    parent.assign(out.origin[l].size(), kInvalidNode);
    for (NodeId v = 0; v < ml.levels[l].node_count(); ++v) {
      parent[ml_to_hybrid[l][v]] = ml_to_hybrid[l + 1][ml.parent[l][v]];
    }
  }

  // G'0 clusters and layouts: at hybrid level 0 every node's origin is a
  // representative, and each representative appears exactly once.
  const std::size_t hn0 = out.origin[0].size();
  out.cluster_reads.resize(hn0);
  out.layouts.resize(hn0);
  for (NodeId h = 0; h < hn0; ++h) {
    const HybridOrigin o = out.origin[0][h];
    FOCUS_ASSERT(sel.is_rep[o.ml_level][o.ml_node],
                 "hybrid-graph node without a stored layout");
    out.cluster_reads[h] = std::move(clusters[o.ml_level][o.ml_node]);
    out.layouts[h] = std::move(sel.layouts[o.ml_level][o.ml_node]);
  }

  out.selection_work = sel.work;
  return out;
}

}  // namespace focus::graph
