// Tests for the out-of-core graph backbone (DESIGN.md §8): GraphStoreConfig
// env parsing, SpillManager residency/LRU behaviour, HierarchySpill
// round-trips, StoredAsmGraph equivalence with AsmGraph on the serial and
// parallel kernels (both drivers, forced-spill budgets), and the
// assembler façade producing byte-identical assemblies on either backend.
//
// Heavy grid variants (full pipeline on the simulated datasets D1–D3 with a
// spill-forcing budget) are labelled perf-smoke in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/assembler.hpp"
#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "dist/simplify.hpp"
#include "dist/stored_graph.hpp"
#include "dist/traverse.hpp"
#include "graph/graph.hpp"
#include "graph/graph_store.hpp"
#include "sim/datasets.hpp"

namespace focus {
namespace {

using dist::AsmGraph;
using dist::EdgeId;
using dist::StoredAsmGraph;
using graph::GraphStoreBackend;
using graph::GraphStoreConfig;
using graph::SpillManager;

/// The two drivers of every distributed stage: an empty plan runs the
/// master gather; a crash point past every op injects nothing but runs the
/// recovery protocol.
std::vector<std::pair<const char*, mpr::FaultPlan>> driver_plans() {
  mpr::FaultPlan idle;
  idle.crashes.push_back({0, std::numeric_limits<std::uint64_t>::max()});
  return {{"master", {}}, {"recovery", idle}};
}

/// A budget small enough that every multi-partition fixture in this file
/// must evict and reload slices.
GraphStoreConfig tiny_budget_config() {
  GraphStoreConfig config;
  config.backend = GraphStoreBackend::kCsrSpill;
  config.mem_budget_bytes = 2048;
  return config;
}

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

// Same fixture as dist_protocol_test.cpp: a 20-contig chain with transitive
// shortcuts, junk spurs and a contained fragment.
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

/// Full read-surface comparison of a store against its in-memory oracle.
void expect_store_matches(const StoredAsmGraph& got, const AsmGraph& want,
                          const std::string& context) {
  ASSERT_EQ(got.node_count(), want.node_count()) << context;
  ASSERT_EQ(got.edge_count(), want.edge_count()) << context;
  for (NodeId v = 0; v < want.node_count(); ++v) {
    EXPECT_EQ(got.node_live(v), want.node_live(v)) << context << " node " << v;
    EXPECT_EQ(got.contig(v), want.node(v).contig) << context << " node " << v;
    EXPECT_EQ(got.contig_size(v), want.node(v).contig.size())
        << context << " node " << v;
    EXPECT_EQ(got.node_reads(v), want.node(v).reads)
        << context << " node " << v;
    EXPECT_EQ(got.live_out(v), want.live_out(v)) << context << " node " << v;
    EXPECT_EQ(got.live_in(v), want.live_in(v)) << context << " node " << v;
    EXPECT_EQ(got.live_out_degree(v), want.live_out_degree(v))
        << context << " node " << v;
    EXPECT_EQ(got.live_in_degree(v), want.live_in_degree(v))
        << context << " node " << v;
  }
  for (EdgeId e = 0; e < want.edge_count(); ++e) {
    EXPECT_EQ(got.edge(e).from, want.edge(e).from) << context << " edge " << e;
    EXPECT_EQ(got.edge(e).to, want.edge(e).to) << context << " edge " << e;
    EXPECT_EQ(got.edge(e).overlap, want.edge(e).overlap)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).offset, want.edge(e).offset)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).identity, want.edge(e).identity)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).verified, want.edge(e).verified)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).removed, want.edge(e).removed)
        << context << " edge " << e;
  }
  EXPECT_EQ(got.live_node_count(), want.live_node_count()) << context;
  EXPECT_EQ(got.live_edge_count(), want.live_edge_count()) << context;
}

void expect_same_stats(const dist::SimplifyStats& got,
                       const dist::SimplifyStats& want,
                       const std::string& context) {
  EXPECT_EQ(got.transitive_edges, want.transitive_edges) << context;
  EXPECT_EQ(got.false_edges, want.false_edges) << context;
  EXPECT_EQ(got.contained_nodes, want.contained_nodes) << context;
  EXPECT_EQ(got.verified_edges, want.verified_edges) << context;
  EXPECT_EQ(got.tip_nodes, want.tip_nodes) << context;
  EXPECT_EQ(got.bubble_nodes, want.bubble_nodes) << context;
}

// RAII env save/restore.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// ---------------------------------------------------------------------------
// Config parsing
// ---------------------------------------------------------------------------

TEST(GraphStoreConfigEnv, UnsetDefaultsToInMemory) {
  ScopedEnv backend("FOCUS_GRAPH_BACKEND");
  ScopedEnv budget("FOCUS_GRAPH_MEM_BUDGET");
  ScopedEnv dir("FOCUS_GRAPH_SPILL_DIR");
  backend.unset();
  budget.unset();
  dir.unset();
  const auto config = GraphStoreConfig::from_env();
  EXPECT_EQ(config.backend, GraphStoreBackend::kInMemory);
  EXPECT_EQ(config.mem_budget_bytes, 0u);
  EXPECT_TRUE(config.spill_dir.empty());
}

TEST(GraphStoreConfigEnv, NamedBackendsParse) {
  ScopedEnv backend("FOCUS_GRAPH_BACKEND");
  ScopedEnv budget("FOCUS_GRAPH_MEM_BUDGET");
  ScopedEnv dir("FOCUS_GRAPH_SPILL_DIR");
  backend.set("memory");
  EXPECT_EQ(GraphStoreConfig::from_env().backend,
            GraphStoreBackend::kInMemory);
  backend.set("csr-spill");
  budget.set("48M");
  dir.set("/tmp/focus-spill-test");
  const auto config = GraphStoreConfig::from_env();
  EXPECT_EQ(config.backend, GraphStoreBackend::kCsrSpill);
  EXPECT_EQ(config.mem_budget_bytes, 48u * 1024 * 1024);
  EXPECT_EQ(config.spill_dir, "/tmp/focus-spill-test");
}

TEST(GraphStoreConfigEnv, TypoThrowsInsteadOfSilentFallback) {
  ScopedEnv backend("FOCUS_GRAPH_BACKEND");
  backend.set("csrspill");
  EXPECT_THROW(GraphStoreConfig::from_env(), Error);
  backend.set("disk");
  EXPECT_THROW(GraphStoreConfig::from_env(), Error);
}

TEST(GraphStoreConfig, ParseMemSizeSuffixes) {
  EXPECT_EQ(graph::parse_mem_size("65536"), 65536u);
  EXPECT_EQ(graph::parse_mem_size("64K"), 64u * 1024);
  EXPECT_EQ(graph::parse_mem_size("48M"), 48u * 1024 * 1024);
  EXPECT_EQ(graph::parse_mem_size("2G"), 2ull * 1024 * 1024 * 1024);
  EXPECT_THROW(graph::parse_mem_size(""), Error);
  EXPECT_THROW(graph::parse_mem_size("12Q"), Error);
  EXPECT_THROW(graph::parse_mem_size("fifty"), Error);
}

// ---------------------------------------------------------------------------
// SpillManager residency
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> pattern_payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return bytes;
}

TEST(SpillManager, UnlimitedBudgetKeepsEverythingResident) {
  GraphStoreConfig config;
  SpillManager manager(config);
  for (std::uint32_t id = 0; id < 8; ++id) {
    manager.insert(id, pattern_payload(512, static_cast<std::uint8_t>(id)));
  }
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(*manager.fetch(id),
              pattern_payload(512, static_cast<std::uint8_t>(id)));
  }
  const auto stats = manager.stats();
  EXPECT_EQ(stats.slices, 8u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.resident_bytes, 8u * 512);
}

TEST(SpillManager, BudgetEvictsColdestAndReloadsByteIdentical) {
  GraphStoreConfig config;
  config.mem_budget_bytes = 1024;  // room for two 512-byte slices
  SpillManager manager(config);
  for (std::uint32_t id = 0; id < 6; ++id) {
    manager.insert(id, pattern_payload(512, static_cast<std::uint8_t>(id)));
  }
  auto stats = manager.stats();
  EXPECT_GE(stats.evictions, 4u);
  EXPECT_GE(stats.writes, 4u);
  EXPECT_LE(stats.resident_bytes, 1024u);
  EXPECT_LE(stats.peak_resident_bytes, 1024u + 512u);
  // Every slice — resident or spilled — reloads byte-identical.
  for (std::uint32_t id = 0; id < 6; ++id) {
    EXPECT_EQ(*manager.fetch(id),
              pattern_payload(512, static_cast<std::uint8_t>(id)))
        << "slice " << id;
  }
  EXPECT_GE(manager.stats().loads, 1u);
  // A slice file is written at most once: re-evicting an already-written
  // slice must not rewrite it.
  const auto writes_before = manager.stats().writes;
  manager.evict_all();
  for (std::uint32_t id = 0; id < 6; ++id) manager.fetch(id);
  manager.evict_all();
  EXPECT_EQ(manager.stats().writes, 6u);
  EXPECT_GE(manager.stats().writes, writes_before);
}

TEST(SpillManager, SliceLargerThanBudgetStillRoundTrips) {
  GraphStoreConfig config;
  config.mem_budget_bytes = 256;
  SpillManager manager(config);
  manager.insert(7, pattern_payload(4096, 3));
  EXPECT_EQ(*manager.fetch(7), pattern_payload(4096, 3));
}

TEST(SpillManager, DuplicateInsertThrows) {
  GraphStoreConfig config;
  SpillManager manager(config);
  manager.insert(1, pattern_payload(16, 0));
  // Slice ids are write-once — reuse is an internal invariant violation.
  EXPECT_THROW(manager.insert(1, pattern_payload(16, 0)), std::logic_error);
}

TEST(SpillManager, FetchUnknownSliceThrows) {
  GraphStoreConfig config;
  SpillManager manager(config);
  EXPECT_THROW(manager.fetch(42), std::logic_error);
}

// ---------------------------------------------------------------------------
// HierarchySpill
// ---------------------------------------------------------------------------

TEST(HierarchySpill, LevelsRoundTripByteIdentical) {
  Rng rng(7);
  std::vector<graph::Graph> levels;
  for (const std::size_t n : {40u, 20u, 10u}) {
    graph::GraphBuilder b(n);
    for (NodeId v = 0; v < n; ++v) {
      b.set_node_weight(v, static_cast<Weight>(1 + rng.next_below(5)));
    }
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u == v) continue;
      b.add_edge(u, v, static_cast<Weight>(1 + rng.next_below(9)));
    }
    levels.push_back(b.build());
  }

  GraphStoreConfig config;
  config.mem_budget_bytes = 64;  // force every level to disk
  SpillManager manager(config);
  graph::HierarchySpill spill(manager, /*id_base=*/1000);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    spill.spill_level(l, levels[l]);
  }
  manager.evict_all();
  ASSERT_EQ(spill.levels(), levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const graph::Graph got = spill.load_level(l);
    const graph::Graph& want = levels[l];
    ASSERT_EQ(got.node_count(), want.node_count()) << "level " << l;
    ASSERT_EQ(got.edge_count(), want.edge_count()) << "level " << l;
    EXPECT_EQ(got.total_node_weight(), want.total_node_weight());
    EXPECT_EQ(got.total_edge_weight(), want.total_edge_weight());
    for (NodeId v = 0; v < want.node_count(); ++v) {
      EXPECT_EQ(got.node_weight(v), want.node_weight(v));
      const auto gn = got.neighbors(v);
      const auto wn = want.neighbors(v);
      ASSERT_EQ(gn.size(), wn.size()) << "level " << l << " node " << v;
      for (std::size_t i = 0; i < wn.size(); ++i) {
        EXPECT_EQ(gn[i].to, wn[i].to);
        EXPECT_EQ(gn[i].weight, wn[i].weight);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// StoredAsmGraph equivalence
// ---------------------------------------------------------------------------

TEST(StoredGraph, FromAsmGraphPreservesFullSurface) {
  const AsmGraph g = make_complex_graph(11);
  const PartId parts = 4;
  const auto part = striped_partition(g.node_count(), parts);
  const auto store =
      StoredAsmGraph::from_asm_graph(g, part, parts, tiny_budget_config());
  expect_store_matches(store, g, "fresh store");
  EXPECT_EQ(store.partition_count(), parts);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(store.partition_of(v), part[v]);
  }
  EXPECT_GT(store.resident_metadata_bytes(), 0u);
  // The tiny budget forces slices through the disk path.
  EXPECT_GT(store.spill_stats().evictions, 0u);
  EXPECT_GT(store.spill_stats().loads, 0u);
}

TEST(StoredGraph, NonAcgtContigBytesAreExact) {
  // The 2-bit packing cannot represent N (or any other IUPAC/garbage byte);
  // the exception list must restore them byte-for-byte.
  AsmGraph g;
  const std::string weird = "ACGTNNNNRYKMacgtACGT-@xACGTNNN";
  g.add_node(weird, 2);
  g.add_node(std::string(100, 'N'), 1);
  g.add_node("ACGT", 1);
  const std::vector<PartId> part{0, 1, 0};
  const auto store =
      StoredAsmGraph::from_asm_graph(g, part, 2, tiny_budget_config());
  EXPECT_EQ(store.contig(0), weird);
  EXPECT_EQ(store.contig(1), std::string(100, 'N'));
  EXPECT_EQ(store.contig(2), "ACGT");
}

TEST(StoredGraph, ToAsmGraphRoundTripsMutations) {
  AsmGraph g = make_complex_graph(12);
  const auto part = striped_partition(g.node_count(), 4);
  auto store = StoredAsmGraph::from_asm_graph(g, part, 4, tiny_budget_config());
  // Apply the same mutations to both.
  g.remove_node(3);
  store.remove_node(3);
  g.remove_edge(2);
  store.remove_edge(2);
  g.set_verified(5, 77, 0.93F);
  store.set_verified(5, 77, 0.93F);
  expect_store_matches(store, g, "mutated store");
  const AsmGraph back = store.to_asm_graph();
  expect_store_matches(store, back, "round-tripped store");
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(back.node(v).contig, g.node(v).contig);
    EXPECT_EQ(back.node(v).removed, g.node(v).removed);
  }
}

TEST(StoredGraph, SerialKernelsMatchInMemoryBackend) {
  AsmGraph g = make_complex_graph(13);
  const auto part = striped_partition(g.node_count(), 4);
  auto store = StoredAsmGraph::from_asm_graph(g, part, 4, tiny_budget_config());
  dist::SimplifyConfig cfg;
  const auto want_stats = dist::simplify_serial(g, cfg);
  const auto got_stats = dist::simplify_serial(store, cfg);
  expect_same_stats(got_stats, want_stats, "serial simplify");
  expect_store_matches(store, g, "post-simplify");
  const auto want_paths = dist::traverse_serial(g);
  const auto got_paths = dist::traverse_serial(store);
  EXPECT_EQ(got_paths, want_paths);
  for (const auto& path : want_paths) {
    EXPECT_EQ(store.merge_path_contigs(path), g.merge_path_contigs(path));
  }
}

class StoredGraphRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(StoredGraphRankSweep, ParallelKernelsMatchInMemoryBackend) {
  const int nranks = GetParam();
  for (const auto& [driver, plan] : driver_plans()) {
    const std::string context =
        "ranks " + std::to_string(nranks) + " driver " + driver;
    const PartId parts = 8;
    AsmGraph g = make_complex_graph(21);
    const auto part = striped_partition(g.node_count(), parts);
    auto store =
        StoredAsmGraph::from_asm_graph(g, part, parts, tiny_budget_config());
    dist::SimplifyConfig cfg;
    const auto want =
        dist::simplify_parallel(g, part, parts, cfg, nranks, {}, 1, plan);
    const auto got =
        dist::simplify_parallel(store, part, parts, cfg, nranks, {}, 1, plan);
    expect_same_stats(got.stats, want.stats, context);
    expect_store_matches(store, g, context);
    // Equal inputs must also cost equal virtual time on either backend.
    EXPECT_EQ(got.run.makespan, want.run.makespan) << context;
    EXPECT_EQ(got.run.messages, want.run.messages) << context;

    const auto want_t = dist::traverse_parallel(g, part, parts, nranks);
    const auto got_t = dist::traverse_parallel(store, part, parts, nranks);
    ASSERT_EQ(got_t.paths, want_t.paths) << context;
    EXPECT_EQ(got_t.run.makespan, want_t.run.makespan) << context;
    EXPECT_GT(store.spill_stats().loads, 0u) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, StoredGraphRankSweep,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Assembler façade
// ---------------------------------------------------------------------------

core::FocusConfig pipeline_config() {
  core::FocusConfig cfg;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 50;
  cfg.overlap.min_identity = 0.90;
  cfg.partitions = 4;
  cfg.ranks = 4;
  return cfg;
}

void expect_same_assembly(const core::AssemblyResult& got,
                          const core::AssemblyResult& want,
                          const std::string& context) {
  EXPECT_EQ(got.contigs, want.contigs) << context;
  ASSERT_EQ(got.paths, want.paths) << context;
  expect_same_stats(got.simplify_stats, want.simplify_stats, context);
  EXPECT_EQ(got.stats.n50, want.stats.n50) << context;
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases) << context;
  ASSERT_EQ(got.assembly_graph.node_count(), want.assembly_graph.node_count())
      << context;
  for (NodeId v = 0; v < want.assembly_graph.node_count(); ++v) {
    EXPECT_EQ(got.assembly_graph.node(v).contig,
              want.assembly_graph.node(v).contig)
        << context << " node " << v;
    EXPECT_EQ(got.assembly_graph.node(v).removed,
              want.assembly_graph.node(v).removed)
        << context << " node " << v;
  }
  ASSERT_EQ(got.assembly_graph.edge_count(), want.assembly_graph.edge_count())
      << context;
  for (EdgeId e = 0; e < want.assembly_graph.edge_count(); ++e) {
    EXPECT_EQ(got.assembly_graph.edge(e).removed,
              want.assembly_graph.edge(e).removed)
        << context << " edge " << e;
  }
  // The spilled-and-reloaded multilevel hierarchy must survive unchanged.
  ASSERT_EQ(got.multilevel.levels.size(), want.multilevel.levels.size())
      << context;
  for (std::size_t l = 0; l < want.multilevel.levels.size(); ++l) {
    EXPECT_EQ(got.multilevel.levels[l].node_count(),
              want.multilevel.levels[l].node_count())
        << context << " level " << l;
    EXPECT_EQ(got.multilevel.levels[l].edge_count(),
              want.multilevel.levels[l].edge_count())
        << context << " level " << l;
    EXPECT_EQ(got.multilevel.levels[l].total_edge_weight(),
              want.multilevel.levels[l].total_edge_weight())
        << context << " level " << l;
  }
}

TEST(GraphStoreAssembler, SpillBackendMatchesInMemoryEndToEnd) {
  const sim::Dataset d = sim::make_dataset(1, /*scale=*/0.15, /*coverage=*/6.0);
  core::FocusConfig cfg = pipeline_config();
  cfg.graph_store.backend = GraphStoreBackend::kInMemory;
  const auto want = core::assemble_reads(d.data.reads, cfg);
  cfg.graph_store.backend = GraphStoreBackend::kCsrSpill;
  cfg.graph_store.mem_budget_bytes = 4096;  // force slices through disk
  const auto got = core::assemble_reads(d.data.reads, cfg);
  expect_same_assembly(got, want, "spill backend");
}

TEST(GraphStoreAssembler, EnvSelectsBackend) {
  ScopedEnv backend("FOCUS_GRAPH_BACKEND");
  ScopedEnv budget("FOCUS_GRAPH_MEM_BUDGET");
  const sim::Dataset d = sim::make_dataset(2, /*scale=*/0.15, /*coverage=*/6.0);
  backend.unset();
  budget.unset();
  const auto want = core::assemble_reads(d.data.reads, pipeline_config());
  backend.set("csr-spill");
  budget.set("8K");
  // FocusConfig{} defaults graph_store from the environment.
  const auto got = core::assemble_reads(d.data.reads, pipeline_config());
  expect_same_assembly(got, want, "env-selected backend");
}

// Heavy grid (perf-smoke label): datasets D1–D3 through the whole pipeline,
// both drivers, spill-forcing budget, at every rank count — the in-memory
// backend is the oracle at each sweep point.
TEST(GraphStoreHeavy, GridDatasetsRanksProtocolsByteIdentical) {
  for (const int ds : {1, 2, 3}) {
    const sim::Dataset d =
        sim::make_dataset(ds, /*scale=*/0.25, /*coverage=*/6.0);
    core::FocusConfig cfg = pipeline_config();
    cfg.partitions = 8;
    for (const int nranks : {1, 2, 4, 8}) {
      cfg.ranks = nranks;
      for (const auto& [driver, plan] : driver_plans()) {
        cfg.fault_plan = plan;
        cfg.graph_store = GraphStoreConfig{};
        const auto want = core::assemble_reads(d.data.reads, cfg);
        cfg.graph_store.backend = GraphStoreBackend::kCsrSpill;
        cfg.graph_store.mem_budget_bytes = 8192;
        const auto got = core::assemble_reads(d.data.reads, cfg);
        const std::string context =
            "dataset " + std::to_string(ds) + " ranks " +
            std::to_string(nranks) + " driver " + driver;
        expect_same_assembly(got, want, context);
      }
    }
  }
}

}  // namespace
}  // namespace focus
