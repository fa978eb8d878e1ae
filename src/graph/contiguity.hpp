// Contiguity test for read clusters (paper §II-D).
//
// A "best representative" node must come from the most reduced graph level
// possible "whose corresponding read cluster assembles into a contiguous
// contig". This tester decides that property on the directed read graph:
// the cluster's induced subgraph (containment reads excluded), after local
// transitive reduction, must form a single simple path. When it does, the
// path *is* the layout of the cluster's contig.
//
// The tester itself is immutable; every query runs on a ContiguityScratch,
// so independent clusters can be tested concurrently, one scratch per task.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace focus::graph {

/// One read in a contig layout and its overlap with the next read in the
/// path (0 for the last read).
struct LayoutStep {
  NodeId read = kInvalidNode;
  Weight overlap_to_next = 0;
};

/// Reusable working memory for ContiguityTester queries. It holds no
/// reference to a graph, so one scratch may serve testers over different
/// read graphs in any interleaving. Cluster membership and the transitive-
/// reduction marks are 64-bit stamps drawn from one counter that only grows:
/// an entry left by an earlier query never matches a later one, so nothing
/// is cleared between queries and the counter cannot wrap.
class ContiguityScratch {
 public:
  /// Work units charged by the queries run on this scratch since the last
  /// take_work().
  double work() const { return work_; }

  /// Returns work() and resets it to zero.
  double take_work() {
    const double w = work_;
    work_ = 0.0;
    return w;
  }

 private:
  friend class ContiguityTester;

  std::uint64_t stamp_ = 0;
  double work_ = 0.0;

  // Per read-graph node (grown to the largest graph seen).
  std::vector<std::uint64_t> member_;  // stamp: active member of this query
  std::vector<std::uint32_t> local_;   // index among the active members

  // Per active member of the current query.
  std::vector<NodeId> active_;
  std::vector<std::uint32_t> offsets_;  // CSR of the induced edges
  std::vector<std::uint32_t> targets_;  // local index of each edge's head
  std::vector<Weight> overlaps_;
  // Row stamp r: head of the row's edge; r + 1: also reached in two hops.
  std::vector<std::uint64_t> reach_;
  std::vector<std::uint32_t> in_degree_;   // after reduction
  std::vector<std::uint32_t> next_;        // reduced successor, or kNone
  std::vector<Weight> next_overlap_;
};

class ContiguityTester {
 public:
  /// `reads` is the directed read graph; `read_lengths[v]` the sequence
  /// length of read v (used to pick a representative when a cluster consists
  /// solely of contained reads).
  ContiguityTester(const Digraph& reads,
                   std::vector<std::uint32_t> read_lengths);

  /// True iff the cluster assembles into one contiguous contig. On success,
  /// if `layout` is non-null it receives the reads in left-to-right path
  /// order with their chaining overlaps. The query's work units are added to
  /// `scratch.work()`: the cluster size, every out-edge of an active member,
  /// and every two-hop edge the transitive reduction scans. Thread-safe for
  /// distinct scratches.
  bool contiguous(std::span<const NodeId> cluster, ContiguityScratch& scratch,
                  std::vector<LayoutStep>* layout = nullptr) const;

  /// Same, on the tester's own scratch.
  bool contiguous(std::span<const NodeId> cluster,
                  std::vector<LayoutStep>* layout = nullptr) {
    return contiguous(cluster, scratch_, layout);
  }

  /// Work units consumed on the tester's own scratch since construction.
  double work() const { return scratch_.work(); }

 private:
  const Digraph* reads_;
  std::vector<std::uint32_t> read_lengths_;
  ContiguityScratch scratch_;
};

}  // namespace focus::graph
