// Shared fixture for the hybrid-graph-set suites: the inputs build_hybrid
// takes (multilevel set, directed read graph, read lengths) for a small
// simulated dataset, and a content digest of a HybridGraphSet that covers
// every field except selection_work.
#pragma once

#include <cstdint>
#include <vector>

#include "align/overlapper.hpp"
#include "common/digest.hpp"
#include "graph/coarsen.hpp"
#include "graph/digraph.hpp"
#include "graph/hybrid.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"

namespace focus::test {

struct HybridInputs {
  graph::GraphHierarchy multilevel;
  graph::Digraph read_graph;
  std::vector<std::uint32_t> read_lengths;
};

/// Simulates dataset `index` (1..3) and runs stages 1-3 serially.
inline HybridInputs make_hybrid_inputs(int index, double scale,
                                       double coverage) {
  const sim::Dataset ds = sim::make_dataset(index, scale, coverage);
  const io::ReadSet reads = io::preprocess(ds.data.reads, {});
  align::OverlapperConfig ocfg;
  ocfg.k = 14;
  ocfg.min_kmer_hits = 3;
  ocfg.min_overlap = 50;
  ocfg.min_identity = 0.90;
  ocfg.threads = 1;
  const auto overlaps = align::find_overlaps(reads, ocfg);
  graph::CoarsenConfig ccfg;
  ccfg.min_nodes = 16;
  ccfg.max_levels = 10;
  HybridInputs in;
  in.multilevel = graph::build_multilevel(
      graph::build_overlap_graph(reads.size(), overlaps), ccfg);
  in.read_graph = graph::build_read_digraph(reads.size(), overlaps);
  in.read_lengths.reserve(reads.size());
  for (const auto& r : reads) {
    in.read_lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
  }
  return in;
}

/// Digest of the hierarchy (node weights, adjacency, parent maps), origin,
/// cluster_reads, layouts and reps_per_level. selection_work is left out so
/// callers compare it on its own, exactly.
inline common::Digest digest_of(const graph::HybridGraphSet& h) {
  common::Hasher hs(0x48594252ull);  // "HYBR"
  hs.u64(h.hierarchy.levels.size());
  for (const graph::Graph& g : h.hierarchy.levels) {
    hs.u64(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      hs.u64(static_cast<std::uint64_t>(g.node_weight(v)));
      hs.u64(g.degree(v));
      for (const graph::Edge& e : g.neighbors(v)) {
        hs.u32(e.to).u64(static_cast<std::uint64_t>(e.weight));
      }
    }
  }
  for (const auto& parent : h.hierarchy.parent) {
    hs.u64(parent.size());
    for (const NodeId p : parent) hs.u32(p);
  }
  for (const auto& level : h.origin) {
    hs.u64(level.size());
    for (const auto& o : level) hs.u32(o.ml_level).u32(o.ml_node);
  }
  hs.u64(h.cluster_reads.size());
  for (const auto& reads : h.cluster_reads) {
    hs.u64(reads.size());
    for (const NodeId r : reads) hs.u32(r);
  }
  hs.u64(h.layouts.size());
  for (const auto& layout : h.layouts) {
    hs.u64(layout.size());
    for (const auto& step : layout) {
      hs.u32(step.read).u64(static_cast<std::uint64_t>(step.overlap_to_next));
    }
  }
  hs.u64(h.reps_per_level.size());
  for (const std::size_t n : h.reps_per_level) hs.u64(n);
  return hs.finish();
}

}  // namespace focus::test
