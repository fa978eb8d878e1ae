// Hybrid graph set construction (paper §II-D, §III; Fig. 1B).
//
// Starting from the most reduced multilevel graph, each node's read cluster
// is tested for contiguity. Contiguous clusters become *best representative*
// nodes; non-contiguous nodes are expanded into their children, which form
// the next finer level's frontier. Level-0 nodes (single reads) are trivially
// contiguous, so every read ends up covered by exactly one representative.
//
// The hybrid graph set G' = {G'0 … G'n} mirrors the multilevel set with each
// representative frozen as a single node from its selection level downward:
// G'i contains every representative chosen at multilevel levels >= i plus the
// still-uncovered nodes of level i. G'0 — the *hybrid graph* — consists of
// exactly the representatives. Partitioning G' instead of the full
// multilevel set is the paper's "biological knowledge" shortcut: reads whose
// cluster is known to form one contig never need to be uncoarsened apart.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coarsen.hpp"
#include "graph/contiguity.hpp"

namespace focus::graph {

/// Which multilevel node a hybrid node came from.
struct HybridOrigin {
  std::uint32_t ml_level = 0;
  NodeId ml_node = kInvalidNode;
};

struct HybridGraphSet {
  /// levels[0] = the hybrid graph G'0; same depth as the multilevel set.
  GraphHierarchy hierarchy;
  /// origin[l][h]: multilevel provenance of hybrid node h at hybrid level l.
  std::vector<std::vector<HybridOrigin>> origin;
  /// For each G'0 node: the finest-level (read) node ids it represents.
  std::vector<std::vector<NodeId>> cluster_reads;
  /// For each G'0 node: the contig layout of its cluster (path order).
  std::vector<std::vector<LayoutStep>> layouts;
  /// reps_per_level[j] = number of representatives selected at ml level j.
  std::vector<std::size_t> reps_per_level;
  /// Work units spent on contiguity testing during construction.
  double selection_work = 0.0;

  const Graph& hybrid_graph() const { return hierarchy.levels.front(); }

  /// Maps a partition of the hybrid graph G'0 to the overlap graph G0:
  /// every read inherits the partition of its representative.
  std::vector<PartId> project_to_reads(const std::vector<PartId>& hybrid_parts,
                                       std::size_t read_count) const;
};

/// Builds the hybrid graph set from the multilevel set and the directed read
/// graph (used by the contiguity test). The contiguity tests of each level's
/// frontier run on a pool `threads` wide (0 = auto, as for
/// OverlapperConfig::threads); the result is identical at every width.
HybridGraphSet build_hybrid(const GraphHierarchy& multilevel,
                            const Digraph& read_graph,
                            std::vector<std::uint32_t> read_lengths,
                            unsigned threads = 0);

}  // namespace focus::graph
