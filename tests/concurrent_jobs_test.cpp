// Concurrent-assembler determinism suite: two in-process assemblies running
// at the same time — raw std::threads or JobScheduler lanes — must each
// produce the byte-identical result of a serial run, across drivers (the
// fault-free master gather and the recovery protocol under an idle plan),
// graph-store backends, and thread-pool widths. This is the proof obligation
// for the global-state sweep (EnvSnapshot, per-pool TLS slots, job-boundary
// scratch reset): before it, scattered getenv reads and cross-pool
// thread_local indices made two concurrent Assemblers unsound. Runs under
// TSan via tools/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/assembler.hpp"
#include "sim/datasets.hpp"
#include "svc/scheduler.hpp"

namespace focus {
namespace {

const sim::Dataset& dataset_one() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

const sim::Dataset& dataset_two() {
  static const sim::Dataset d =
      sim::make_dataset(2, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

/// Env-independent pipeline config; distributed-index overlap so stage 2
/// also exercises the mpr runtime concurrently.
core::FocusConfig jobs_config(graph::GraphStoreBackend backend,
                              unsigned width = 0) {
  core::FocusConfig cfg{EnvSnapshot{}};
  cfg.overlap.strategy = align::SeedStrategy::kDistributedIndex;
  cfg.overlap.k = 14;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.partitions = 4;
  cfg.ranks = 2;
  cfg.min_contig_length = 150;
  cfg.graph_store.backend = backend;
  if (width != 0) {
    cfg.overlap.threads = width;
    cfg.coarsen.threads = width;
    cfg.partitioner.threads = width;
  }
  return cfg;
}

/// A crash point past every op: it injects nothing, but a non-empty plan runs
/// every distributed stage on the recovery protocol.
mpr::FaultPlan idle_plan() {
  mpr::FaultPlan plan;
  plan.crashes.push_back({0, std::numeric_limits<std::uint64_t>::max()});
  return plan;
}

/// Serial oracles. Outputs are driver/backend/width-invariant, so one
/// oracle per dataset serves every configuration under test.
const core::AssemblyResult& oracle_one() {
  static const core::AssemblyResult r =
      core::assemble_reads(dataset_one().data.reads,
                           jobs_config(graph::GraphStoreBackend::kInMemory));
  return r;
}

const core::AssemblyResult& oracle_two() {
  static const core::AssemblyResult r =
      core::assemble_reads(dataset_two().data.reads,
                           jobs_config(graph::GraphStoreBackend::kInMemory));
  return r;
}

void expect_same_assembly(const core::AssemblyResult& got,
                          const core::AssemblyResult& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.contigs, want.contigs) << ctx;
  ASSERT_EQ(got.paths, want.paths) << ctx;
  EXPECT_EQ(got.reads.size(), want.reads.size()) << ctx;
  EXPECT_EQ(got.overlaps.size(), want.overlaps.size()) << ctx;
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut) << ctx;
  EXPECT_EQ(got.stats.n50, want.stats.n50) << ctx;
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases) << ctx;
}

/// Runs two full assemblies concurrently on raw std::threads and checks both
/// against the serial oracles.
void run_concurrent_pair(const core::FocusConfig& cfg1,
                         const core::FocusConfig& cfg2,
                         const std::string& ctx) {
  core::AssemblyResult r1, r2;
  std::thread t1([&] {
    r1 = core::FocusAssembler(cfg1).assemble(dataset_one().data.reads);
  });
  std::thread t2([&] {
    r2 = core::FocusAssembler(cfg2).assemble(dataset_two().data.reads);
  });
  t1.join();
  t2.join();
  expect_same_assembly(r1, oracle_one(), ctx + " / dataset 1");
  expect_same_assembly(r2, oracle_two(), ctx + " / dataset 2");
}

TEST(ConcurrentAssemblers, ProtocolAndBackendMatrixMatchesSerial) {
  for (const bool recovery : {false, true}) {
    for (const auto backend : {graph::GraphStoreBackend::kInMemory,
                               graph::GraphStoreBackend::kCsrSpill}) {
      const std::string ctx =
          std::string("driver=") + (recovery ? "recovery" : "master") +
          " backend=" +
          (backend == graph::GraphStoreBackend::kInMemory ? "memory"
                                                          : "csr-spill");
      SCOPED_TRACE(ctx);
      core::FocusConfig cfg = jobs_config(backend);
      if (recovery) cfg.fault_plan = idle_plan();
      run_concurrent_pair(cfg, cfg, ctx);
    }
  }
}

TEST(ConcurrentAssemblers, HeavyWidthSweepMatchesSerial) {
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    const std::string ctx = "width=" + std::to_string(width);
    SCOPED_TRACE(ctx);
    run_concurrent_pair(jobs_config(graph::GraphStoreBackend::kInMemory,
                                    width),
                        jobs_config(graph::GraphStoreBackend::kInMemory,
                                    width),
                        ctx);
  }
}

TEST(ConcurrentAssemblers, MixedConfigurationsShareTheProcess) {
  // The two concurrent jobs deliberately disagree on driver, backend and
  // width: nothing one job configures may leak into the other.
  core::FocusConfig recovering =
      jobs_config(graph::GraphStoreBackend::kCsrSpill, 2);
  recovering.fault_plan = idle_plan();
  run_concurrent_pair(recovering,
                      jobs_config(graph::GraphStoreBackend::kInMemory, 8),
                      "mixed configs");
}

TEST(ConcurrentAssemblers, SchedulerLanesMatchSerial) {
  svc::SchedulerConfig sc;
  sc.max_in_flight = 2;
  svc::JobScheduler sched(sc);

  auto f1 = sched.submit("t1", dataset_one().data.reads,
                         jobs_config(graph::GraphStoreBackend::kInMemory));
  auto f2 = sched.submit("t2", dataset_two().data.reads,
                         jobs_config(graph::GraphStoreBackend::kInMemory));
  const svc::JobResult r1 = f1.get();
  const svc::JobResult r2 = f2.get();
  expect_same_assembly(r1.assembly, oracle_one(), "scheduler / dataset 1");
  expect_same_assembly(r2.assembly, oracle_two(), "scheduler / dataset 2");

  // Repeat submissions ride the shared artifact cache and stay identical.
  const svc::JobResult again =
      sched.submit("t1", dataset_one().data.reads,
                   jobs_config(graph::GraphStoreBackend::kInMemory))
          .get();
  EXPECT_TRUE(again.stats.cache_hits.preprocess);
  EXPECT_TRUE(again.stats.cache_hits.overlaps);
  EXPECT_TRUE(again.stats.cache_hits.coarsen);
  expect_same_assembly(again.assembly, oracle_one(), "scheduler / repeat");
}

}  // namespace
}  // namespace focus
