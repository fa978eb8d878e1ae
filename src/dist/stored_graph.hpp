// StoredAsmGraph: the out-of-core backend of the assembly-graph phases
// (DESIGN.md §8). Same read/mutate surface as dist::AsmGraph — the simplify
// and traverse kernels are templates over either — but the two big per-node
// payloads, contig sequence and CSR adjacency, live in immutable per-partition
// slices managed by a graph::SpillManager (LRU residency under
// FOCUS_GRAPH_MEM_BUDGET), while mutation state stays in small resident
// overlays:
//
//   resident, mutable    removed-node flags; the full AsmEdge array (each
//                        record carries its own removed/verified overlay —
//                        O(24 B) per edge, mutated by the applying rank
//                        exactly as with AsmGraph)
//   resident, immutable  per-node partition id, local index, contig length,
//                        read count
//   sliced, immutable    per-partition CSR out/in edge-id lists + 2-bit
//                        packed contigs (packed_seq codes plus an exception
//                        list for non-ACGT characters, so decode is
//                        byte-exact)
//
// Accessors that touch sliced data return values, never references —
// live_out/live_in build their vectors (as AsmGraph's do) and contig()
// returns an owning string — so an eviction can never invalidate what a
// kernel holds. Kernels bind `decltype(auto) cv = g.contig(v)` to get a
// const& from AsmGraph and an owning string here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/asm_graph.hpp"
#include "graph/graph_store.hpp"

namespace focus::dist {

class StoredAsmGraphBuilder;

class StoredAsmGraph {
 public:
  StoredAsmGraph() = default;
  StoredAsmGraph(StoredAsmGraph&&) = default;
  StoredAsmGraph& operator=(StoredAsmGraph&&) = default;

  /// Packs an existing in-memory graph into a store (tests, conversions).
  /// Node/edge ids, every AsmEdge field and the removed flags carry over
  /// verbatim.
  static StoredAsmGraph from_asm_graph(const AsmGraph& g,
                                       std::span<const PartId> part,
                                       PartId nparts,
                                       const graph::GraphStoreConfig& config);

  std::size_t node_count() const { return meta_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const AsmEdge& edge(EdgeId e) const { return edges_[e]; }

  bool node_live(NodeId v) const { return removed_[v] == 0; }
  bool edge_live(EdgeId e) const {
    const AsmEdge& edge = edges_[e];
    return !edge.removed && removed_[edge.from] == 0 &&
           removed_[edge.to] == 0;
  }

  /// Contig of v, decoded from its partition slice (owning string).
  std::string contig(NodeId v) const;
  std::size_t contig_size(NodeId v) const { return meta_[v].contig_len; }
  Weight node_reads(NodeId v) const { return reads_[v]; }

  std::vector<EdgeId> live_out(NodeId v) const;
  std::vector<EdgeId> live_in(NodeId v) const;
  std::size_t live_out_degree(NodeId v) const;
  std::size_t live_in_degree(NodeId v) const;
  std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  void remove_edge(EdgeId e) { edges_[e].removed = true; }
  void remove_node(NodeId v) { removed_[v] = 1; }
  void set_verified(EdgeId e, std::uint32_t overlap, float identity) {
    edges_[e].overlap = overlap;
    edges_[e].identity = identity;
    edges_[e].verified = true;
  }

  std::size_t live_node_count() const;
  std::size_t live_edge_count() const;

  std::string merge_path_contigs(const std::vector<NodeId>& path) const;

  PartId partition_of(NodeId v) const { return meta_[v].part; }
  PartId partition_count() const { return nparts_; }

  /// Pulls partition p's slice resident (a scan about to walk p can warm the
  /// cache in one load instead of faulting per accessor).
  void touch_partition(PartId p) const;

  /// Materializes the store as a plain AsmGraph — same ids, same field
  /// values, removed flags included. Used to hand a spill-backed assembly
  /// back through the AsmGraph-typed result/GFA surface.
  AsmGraph to_asm_graph() const;

  graph::SpillStats spill_stats() const { return manager_->stats(); }
  graph::SpillManager& spill_manager() { return *manager_; }
  const graph::SpillManager& spill_manager() const { return *manager_; }

  /// Bytes of the always-resident arrays (node metadata + edge records) —
  /// the part of the store the budget does not cover.
  std::size_t resident_metadata_bytes() const;

 private:
  friend class StoredAsmGraphBuilder;

  struct NodeMeta {
    PartId part = 0;
    std::uint32_t local = 0;  // index within the partition slice
    std::uint32_t contig_len = 0;
  };

  struct SliceView;
  SliceView slice(PartId p) const;
  std::string decode_contig(const SliceView& view, NodeId v) const;

  std::vector<NodeMeta> meta_;
  std::vector<Weight> reads_;
  std::vector<std::uint8_t> removed_;  // mutation overlay: 1 = removed
  std::vector<AsmEdge> edges_;         // resident; removed/verified overlay
  PartId nparts_ = 0;
  std::unique_ptr<graph::SpillManager> manager_;
};

/// Two-phase construction: declare every node (lengths and read counts only —
/// no sequence bytes), add every edge, then finish() with a contig callback
/// that is invoked partition by partition in ascending partition order, so at
/// most one partition's sequence data is in flight while the store is built.
/// Edge ids are assigned in add_edge call order, exactly as AsmGraph does.
class StoredAsmGraphBuilder {
 public:
  StoredAsmGraphBuilder(const graph::GraphStoreConfig& config,
                        std::span<const PartId> part, PartId nparts);

  NodeId declare_node(std::uint32_t contig_len, Weight reads);
  EdgeId add_edge(NodeId from, NodeId to, std::uint32_t overlap,
                  std::uint32_t offset);

  std::size_t node_count() const { return declared_; }

  /// Seals every partition slice (calling `contig_of` once per node, grouped
  /// by partition) and returns the finished store.
  StoredAsmGraph finish(const std::function<std::string(NodeId)>& contig_of);

 private:
  StoredAsmGraph g_;
  std::size_t declared_ = 0;
  std::vector<std::vector<EdgeId>> out_;  // transient; dropped by finish()
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace focus::dist
