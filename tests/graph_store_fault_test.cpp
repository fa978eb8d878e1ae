// Fault sweep over the spill manager (DESIGN.md §8, ctest label: fault):
// a crash at every slice-write position must retry cleanly and reproduce the
// fault-free assembly; corrupt or truncated slice files must raise typed
// focus errors naming the file; and a rank-crash replay on the spill backend
// must reproduce the fault-free in-memory assembly exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/assembler.hpp"
#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "dist/simplify.hpp"
#include "dist/stored_graph.hpp"
#include "dist/traverse.hpp"
#include "graph/graph_store.hpp"
#include "sim/datasets.hpp"

namespace focus {
namespace {

using dist::AsmGraph;
using dist::EdgeId;
using dist::StoredAsmGraph;
using graph::GraphStoreBackend;
using graph::GraphStoreConfig;

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

AsmGraph make_complex_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::string genome = random_seq(rng, 3000);
  AsmGraph g;
  std::vector<NodeId> chain;
  for (int i = 0; i < 20; ++i) {
    chain.push_back(
        g.add_node(genome.substr(static_cast<std::size_t>(i) * 140, 220), 6));
  }
  for (int i = 0; i + 1 < 20; ++i) g.add_edge(chain[i], chain[i + 1], 80);
  for (int i = 0; i < 18; i += 3) g.add_edge(chain[i], chain[i + 2], 20);
  const NodeId junk1 = g.add_node(random_seq(rng, 150), 1);
  const NodeId junk2 = g.add_node(random_seq(rng, 150), 1);
  g.add_edge(junk1, chain[5], 60);
  g.add_edge(chain[10], junk2, 60);
  const NodeId small = g.add_node(genome.substr(300, 90), 1);
  g.add_edge(chain[2], small, 90, /*offset_estimate=*/20);
  return g;
}

std::vector<PartId> striped_partition(std::size_t nodes, PartId parts) {
  std::vector<PartId> part(nodes);
  const std::size_t per =
      (nodes + static_cast<std::size_t>(parts) - 1) /
      static_cast<std::size_t>(parts);
  for (NodeId v = 0; v < nodes; ++v) part[v] = static_cast<PartId>(v / per);
  return part;
}

struct StoreOutcome {
  dist::SimplifyStats stats;
  std::vector<std::vector<NodeId>> paths;
  std::vector<std::string> contigs;  // every live node, post-simplify
};

/// The deterministic store workload all write-fault sweep points replay:
/// build → force every slice to disk → serial simplify + traverse → decode
/// every live contig (reloading slices from their files).
StoreOutcome run_store_workload(std::uint64_t nth_write_fault) {
  const AsmGraph g = make_complex_graph(77);
  const PartId parts = 6;
  const auto part = striped_partition(g.node_count(), parts);
  GraphStoreConfig config;  // unlimited budget: writes happen at evict_all
  config.backend = GraphStoreBackend::kCsrSpill;
  auto store = StoredAsmGraph::from_asm_graph(g, part, parts, config);
  if (nth_write_fault != 0) {
    store.spill_manager().set_write_fault(nth_write_fault);
  }
  store.spill_manager().evict_all();

  StoreOutcome out;
  dist::SimplifyConfig cfg;
  out.stats = dist::simplify_serial(store, cfg);
  out.paths = dist::traverse_serial(store);
  for (NodeId v = 0; v < store.node_count(); ++v) {
    if (store.node_live(v)) out.contigs.push_back(store.contig(v));
  }
  EXPECT_EQ(store.spill_stats().write_retries, nth_write_fault == 0 ? 0u : 1u);
  return out;
}

TEST(GraphStoreFault, CrashAtEverySliceWriteRecoversExactOutputs) {
  const StoreOutcome want = run_store_workload(0);
  // Fault-free workload writes exactly one file per partition; sweep a crash
  // through every write position (the retry itself shifts later indices, but
  // each sweep point injects exactly one fault).
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const StoreOutcome got = run_store_workload(k);
    const std::string context = "write fault at " + std::to_string(k);
    EXPECT_EQ(got.stats.transitive_edges, want.stats.transitive_edges)
        << context;
    EXPECT_EQ(got.stats.tip_nodes, want.stats.tip_nodes) << context;
    EXPECT_EQ(got.stats.bubble_nodes, want.stats.bubble_nodes) << context;
    ASSERT_EQ(got.paths, want.paths) << context;
    ASSERT_EQ(got.contigs, want.contigs) << context;
  }
}

TEST(GraphStoreFault, PartialWriteNeverLeavesAPlausibleSliceFile) {
  // The injected fault abandons a half-written temp file; the final path must
  // only ever appear complete. After the faulted write retries, the file must
  // parse and CRC-verify.
  const AsmGraph g = make_complex_graph(78);
  const auto part = striped_partition(g.node_count(), 4);
  GraphStoreConfig config;
  config.backend = GraphStoreBackend::kCsrSpill;
  auto store = StoredAsmGraph::from_asm_graph(g, part, 4, config);
  store.spill_manager().set_write_fault(2);
  store.spill_manager().evict_all();
  for (PartId p = 0; p < 4; ++p) {
    const auto path = store.spill_manager().slice_path(p);
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp")) << path;
  }
  // Every contig still decodes from the retried files.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(store.contig(v), g.node(v).contig) << "node " << v;
  }
}

TEST(GraphStoreFault, CorruptSliceRaisesTypedChecksumError) {
  const AsmGraph g = make_complex_graph(79);
  const auto part = striped_partition(g.node_count(), 4);
  GraphStoreConfig config;
  config.backend = GraphStoreBackend::kCsrSpill;
  auto store = StoredAsmGraph::from_asm_graph(g, part, 4, config);
  store.spill_manager().evict_all();

  // Flip one payload byte (past the 20-byte header) of partition 2's file.
  const auto path = store.spill_manager().slice_path(2);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    ASSERT_GT(size, 21u);
    f.seekp(static_cast<std::streamoff>(size - 1));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(size - 1));
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(size - 1));
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  // Any node of partition 2 faults the slice back in and must fail loudly.
  NodeId victim = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (part[v] == 2) {
      victim = v;
      break;
    }
  }
  try {
    store.contig(victim);
    FAIL() << "corrupt slice decoded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphStoreFault, TruncatedSliceRaisesTypedError) {
  const AsmGraph g = make_complex_graph(80);
  const auto part = striped_partition(g.node_count(), 4);
  GraphStoreConfig config;
  config.backend = GraphStoreBackend::kCsrSpill;
  auto store = StoredAsmGraph::from_asm_graph(g, part, 4, config);
  store.spill_manager().evict_all();
  const auto path = store.spill_manager().slice_path(1);
  std::filesystem::resize_file(path, 32);  // header survives, payload gone
  NodeId victim = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (part[v] == 1) {
      victim = v;
      break;
    }
  }
  try {
    store.contig(victim);
    FAIL() << "truncated slice decoded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // A header shorter than 20 bytes is reported as truncated too.
  std::filesystem::resize_file(path, 8);
  EXPECT_THROW(store.contig(victim), Error);
}

// ---------------------------------------------------------------------------
// Rank-crash replay on the spill backend
// ---------------------------------------------------------------------------

struct DriverOutcome {
  dist::SimplifyStats stats;
  std::vector<std::vector<NodeId>> paths;
  AsmGraph graph;
};

DriverOutcome run_store_drivers(int nranks, const mpr::FaultPlan& plan) {
  const AsmGraph g = make_complex_graph(81);
  const PartId parts = 6;
  const auto part = striped_partition(g.node_count(), parts);
  GraphStoreConfig config;
  config.backend = GraphStoreBackend::kCsrSpill;
  config.mem_budget_bytes = 2048;  // spill during the drivers, not only after
  auto store = StoredAsmGraph::from_asm_graph(g, part, parts, config);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  dist::SimplifyConfig cfg;
  DriverOutcome out;
  out.stats = dist::simplify_parallel(store, part, parts, cfg, nranks, {}, 1,
                                      plan, fault)
                  .stats;
  out.paths = dist::traverse_parallel(store, part, parts, nranks, {}, 1, plan,
                                      fault)
                  .paths;
  out.graph = store.to_asm_graph();
  return out;
}

DriverOutcome run_memory_drivers(int nranks, dist::DistProtocol protocol) {
  AsmGraph g = make_complex_graph(81);
  const PartId parts = 6;
  const auto part = striped_partition(g.node_count(), parts);
  const dist::DistConfig dist_cfg{protocol};
  dist::SimplifyConfig cfg;
  DriverOutcome out;
  out.stats = dist::simplify_parallel(g, part, parts, cfg, nranks, {}, 1, {},
                                      {}, dist_cfg)
                  .stats;
  out.paths = dist::traverse_parallel(g, part, parts, nranks).paths;
  out.graph = std::move(g);
  return out;
}

void expect_same_outcome(const DriverOutcome& got, const DriverOutcome& want,
                         const std::string& context) {
  EXPECT_EQ(got.stats.transitive_edges, want.stats.transitive_edges)
      << context;
  EXPECT_EQ(got.stats.contained_nodes, want.stats.contained_nodes) << context;
  EXPECT_EQ(got.stats.verified_edges, want.stats.verified_edges) << context;
  EXPECT_EQ(got.stats.tip_nodes, want.stats.tip_nodes) << context;
  EXPECT_EQ(got.stats.bubble_nodes, want.stats.bubble_nodes) << context;
  ASSERT_EQ(got.paths, want.paths) << context;
  ASSERT_EQ(got.graph.node_count(), want.graph.node_count()) << context;
  for (NodeId v = 0; v < want.graph.node_count(); ++v) {
    EXPECT_EQ(got.graph.node(v).removed, want.graph.node(v).removed)
        << context << " node " << v;
    EXPECT_EQ(got.graph.node(v).contig, want.graph.node(v).contig)
        << context << " node " << v;
  }
  for (EdgeId e = 0; e < want.graph.edge_count(); ++e) {
    EXPECT_EQ(got.graph.edge(e).removed, want.graph.edge(e).removed)
        << context << " edge " << e;
    EXPECT_EQ(got.graph.edge(e).verified, want.graph.edge(e).verified)
        << context << " edge " << e;
  }
}

// The recovery driver on the spill backend against the in-memory fault-free
// master run, crashing the initial coordinator (rank 0, forcing a rotation)
// and a serving rank at every early op.
TEST(GraphStoreFault, CrashReplayOnSpillBackendMatchesInMemoryFaultFree) {
  const int nranks = 3;
  const DriverOutcome want =
      run_memory_drivers(nranks, dist::DistProtocol::kMaster);
  for (Rank victim = 0; victim < 2; ++victim) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const DriverOutcome got = run_store_drivers(nranks, plan);
      expect_same_outcome(got, want,
                          "rank " + std::to_string(victim) +
                              " crash at op " + std::to_string(op));
    }
  }
}

TEST(GraphStoreFault, AssemblerCrashReplayOnSpillBackendMatchesFaultFree) {
  // End to end through the façade: an in-memory fault-free run is the
  // oracle; the spill backend plus a mid-pipeline rank crash must reproduce
  // it contig for contig.
  const sim::Dataset d = sim::make_dataset(1, /*scale=*/0.15, /*coverage=*/6.0);
  core::FocusConfig cfg;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 50;
  cfg.overlap.min_identity = 0.90;
  cfg.partitions = 4;
  cfg.ranks = 3;
  cfg.fault_plan = {};
  cfg.graph_store = GraphStoreConfig{};
  const auto want = core::assemble_reads(d.data.reads, cfg);
  cfg.graph_store.backend = GraphStoreBackend::kCsrSpill;
  cfg.graph_store.mem_budget_bytes = 8192;
  cfg.fault_plan.crashes.push_back({/*rank=*/1, /*op=*/3});
  cfg.fault.max_retries = 32;
  const auto got = core::assemble_reads(d.data.reads, cfg);
  EXPECT_EQ(got.contigs, want.contigs);
  ASSERT_EQ(got.paths, want.paths);
  EXPECT_EQ(got.simplify_stats.tip_nodes, want.simplify_stats.tip_nodes);
  EXPECT_GE(got.simplify_run.ranks_failed + got.traverse_run.ranks_failed, 1);
}

}  // namespace
}  // namespace focus
