// Whole-pipeline chaos soak (ctest label: soak): the full FocusAssembler —
// preprocess, distributed-index overlap, coarsen, hybrid, partition,
// simplify, traverse — run under crash sweeps and mixed-fault storms
// (crashes, drops, duplicates, corruption, delays), across both graph-store
// backends. Every faulted stage runs the one recovery driver. Every run must
// recover the byte-identical fault-free assembly, and same-seed runs must
// produce bit-identical RunStats. The heavier sweep lives in bench/bench_fault_soak
// (BENCH_fault_soak.json); this suite is the CI-sized core of it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/overlap.hpp"
#include "core/assembler.hpp"
#include "io/read.hpp"
#include "sim/datasets.hpp"

namespace focus::core {
namespace {

const sim::Dataset& soak_dataset() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.15, /*coverage=*/6.0);
  return d;
}

FocusConfig soak_config(graph::GraphStoreBackend backend) {
  FocusConfig cfg;
  cfg.overlap.strategy = align::SeedStrategy::kDistributedIndex;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.coarsen.max_levels = 8;
  cfg.partitions = 4;
  cfg.ranks = 4;
  cfg.min_contig_length = 150;
  // Pin everything the environment could perturb: the soak controls its own
  // fault schedule.
  cfg.fault_plan = mpr::FaultPlan{};
  cfg.fault = mpr::FaultConfig{};
  cfg.fault.max_retries = 32;
  cfg.graph_store = graph::GraphStoreConfig{};
  cfg.graph_store.backend = backend;
  return cfg;
}

/// The fault-free oracle. Drivers and backends are output-equivalent, so
/// one oracle serves every configuration under test.
const AssemblyResult& oracle() {
  static const AssemblyResult result = assemble_reads(
      soak_dataset().data.reads,
      soak_config(graph::GraphStoreBackend::kInMemory));
  return result;
}

void expect_same_assembly(const AssemblyResult& got, const std::string& ctx) {
  const AssemblyResult& want = oracle();
  ASSERT_EQ(got.contigs, want.contigs) << ctx;
  EXPECT_EQ(got.stats.n50, want.stats.n50) << ctx;
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases) << ctx;
  ASSERT_EQ(got.paths, want.paths) << ctx;
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut) << ctx;
  // Recovered stages keep records from failed rounds, so compare their
  // outputs record by record: a wrong kept record must not hide behind
  // equal contigs.
  ASSERT_EQ(got.reads.size(), want.reads.size()) << ctx;
  for (std::size_t i = 0; i < got.reads.size(); ++i) {
    const io::Read& a = got.reads[i];
    const io::Read& b = want.reads[i];
    ASSERT_TRUE(a.name == b.name && a.seq == b.seq && a.qual == b.qual &&
                a.origin == b.origin && a.reverse == b.reverse)
        << ctx << " read " << i;
  }
  ASSERT_EQ(got.overlaps.size(), want.overlaps.size()) << ctx;
  for (std::size_t i = 0; i < got.overlaps.size(); ++i) {
    const align::Overlap& a = got.overlaps[i];
    const align::Overlap& b = want.overlaps[i];
    ASSERT_TRUE(a.query == b.query && a.ref == b.ref && a.length == b.length &&
                a.identity == b.identity && a.kind == b.kind)
        << ctx << " overlap " << i;
  }
}

void expect_same_run(const mpr::RunStats& a, const mpr::RunStats& b,
                     const std::string& ctx) {
  EXPECT_EQ(a.makespan, b.makespan) << ctx;
  EXPECT_EQ(a.rank_vtime, b.rank_vtime) << ctx;
  EXPECT_EQ(a.messages, b.messages) << ctx;
  EXPECT_EQ(a.bytes, b.bytes) << ctx;
  EXPECT_EQ(a.retries, b.retries) << ctx;
  EXPECT_EQ(a.ranks_failed, b.ranks_failed) << ctx;
  EXPECT_EQ(a.recovery_vtime, b.recovery_vtime) << ctx;
}

mpr::FaultPlan storm_plan(std::uint64_t seed) {
  mpr::FaultPlan plan;
  plan.seed = seed * 31 + 17;
  plan.p_drop = 0.02;
  plan.p_duplicate = 0.02;
  plan.p_corrupt = 0.02;
  plan.p_delay = 0.02;
  return plan;
}

// 50 seeds of mixed message faults through the full pipeline, spread over
// both backends.
TEST(FaultSoak, FiftySeedStormsRecoverByteIdenticalAssembly) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto backend = (seed % 4 < 2) ? graph::GraphStoreBackend::kInMemory
                                        : graph::GraphStoreBackend::kCsrSpill;
    FocusConfig cfg = soak_config(backend);
    cfg.fault_plan = storm_plan(seed);
    const auto got = assemble_reads(soak_dataset().data.reads, cfg);
    expect_same_assembly(
        got, "seed " + std::to_string(seed) +
                 (backend == graph::GraphStoreBackend::kCsrSpill
                      ? " csr-spill"
                      : " memory"));
  }
}

// Crash one rank at a sweep of op positions — the pipeline runs many
// Runtime::execute sessions, so early ops hit preprocess and overlap while
// later ones land in partition/simplify/traverse. Crashing rank 0 forces
// the rotating coordinator to hand over.
TEST(FaultSoak, CrashSweepThroughPipelineRecovers) {
  for (Rank victim = 0; victim < 3; ++victim) {
    for (std::uint64_t op = 1; op <= 8; op += 1) {
      FocusConfig cfg = soak_config(graph::GraphStoreBackend::kInMemory);
      cfg.fault_plan.crashes.push_back({victim, op});
      const auto got = assemble_reads(soak_dataset().data.reads, cfg);
      expect_same_assembly(got, "rank " + std::to_string(victim) +
                                    " crashed at op " + std::to_string(op));
    }
  }
}

// Same seed => bit-identical virtual-time accounting, down to the RunStats
// of every recovered stage.
TEST(FaultSoak, SameSeedStormIsBitIdentical) {
  FocusConfig cfg = soak_config(graph::GraphStoreBackend::kInMemory);
  cfg.fault_plan = storm_plan(7);
  const auto a = assemble_reads(soak_dataset().data.reads, cfg);
  const auto b = assemble_reads(soak_dataset().data.reads, cfg);
  ASSERT_EQ(a.contigs, b.contigs);
  expect_same_run(a.preprocess_run, b.preprocess_run, "preprocess");
  expect_same_run(a.align_run, b.align_run, "align");
  expect_same_run(a.partition_run, b.partition_run, "partition");
  expect_same_run(a.simplify_run, b.simplify_run, "simplify");
  expect_same_run(a.traverse_run, b.traverse_run, "traverse");
  for (const auto& [stage, timing] : a.timings) {
    const auto it = b.timings.find(stage);
    ASSERT_NE(it, b.timings.end()) << stage;
    EXPECT_EQ(timing.vtime, it->second.vtime) << stage;
  }
}

// The csr-spill backend's nth-write disk fault (a simulated mid-write crash,
// retried from the intact payload) composes with a message-fault storm: both
// recovery paths fire in one run and the assembly is still byte-identical.
TEST(FaultSoak, DiskWriteFaultComposesWithMessageStorm) {
  FocusConfig cfg = soak_config(graph::GraphStoreBackend::kCsrSpill);
  cfg.fault_plan = storm_plan(11);
  cfg.graph_store.write_fault_nth = 2;
  const auto got = assemble_reads(soak_dataset().data.reads, cfg);
  expect_same_assembly(got, "disk fault + storm");
}

}  // namespace
}  // namespace focus::core
