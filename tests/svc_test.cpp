// Multi-tenant job runtime suite (DESIGN.md §10): EnvSnapshot capture and
// strict parsing, the AlignScratch job-boundary soft cap, ArtifactCache
// policy (hit/miss, LRU eviction, oversized decline), JobScheduler admission
// control and virtual-time fair share, and the end-to-end stage-cache path
// through the assembler (repeat submissions must hit and stay
// byte-identical).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/align_scratch.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "core/assembler.hpp"
#include "sim/datasets.hpp"
#include "svc/artifact_cache.hpp"
#include "svc/scheduler.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// EnvSnapshot
// ---------------------------------------------------------------------------

TEST(EnvSnapshot, CaptureReflectsProcessEnvironment) {
  ASSERT_EQ(setenv("FOCUS_SEED_STRATEGY", "distributed", 1), 0);
  ASSERT_EQ(setenv("FOCUS_THREADS", "7", 1), 0);
  const EnvSnapshot snap = EnvSnapshot::capture();
  ASSERT_TRUE(snap.seed_strategy.has_value());
  EXPECT_EQ(*snap.seed_strategy, "distributed");
  ASSERT_TRUE(snap.thread_count().has_value());
  EXPECT_EQ(*snap.thread_count(), 7u);

  ASSERT_EQ(unsetenv("FOCUS_SEED_STRATEGY"), 0);
  ASSERT_EQ(unsetenv("FOCUS_THREADS"), 0);
  const EnvSnapshot fresh = EnvSnapshot::capture();
  EXPECT_FALSE(fresh.seed_strategy.has_value());
  EXPECT_FALSE(fresh.thread_count().has_value());
  // A snapshot is immutable: the earlier capture still holds the old values.
  EXPECT_EQ(*snap.seed_strategy, "distributed");
}

TEST(EnvSnapshot, StrictParsersRejectMalformedValues) {
  EXPECT_EQ(env::parse_u64("X", "0"), 0u);
  EXPECT_EQ(env::parse_u64("X", "123"), 123u);
  for (const char* bad : {"", "x", "1x", "-1", "+1", " 1",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("value='") + bad + "'");
    EXPECT_THROW(env::parse_u64("X", bad), Error);
  }
  EXPECT_DOUBLE_EQ(env::parse_double("X", "0.25"), 0.25);
  EXPECT_THROW(env::parse_double("X", "0.25abc"), Error);
  EXPECT_THROW(env::parse_double("X", ""), Error);
  EXPECT_DOUBLE_EQ(env::parse_rate("X", "1.0"), 1.0);
  EXPECT_THROW(env::parse_rate("X", "1.5"), Error);
  EXPECT_THROW(env::parse_rate("X", "-0.1"), Error);
}

TEST(FocusConfig, DefaultCtorFollowsEnvPinnedCtorDoesNot) {
  ASSERT_EQ(setenv("FOCUS_SEED_STRATEGY", "distributed", 1), 0);
  ASSERT_EQ(setenv("FOCUS_GRAPH_BACKEND", "csr-spill", 1), 0);

  const core::FocusConfig live;  // captures the live environment once
  EXPECT_EQ(live.overlap.strategy, align::SeedStrategy::kDistributedIndex);
  EXPECT_EQ(live.graph_store.backend, graph::GraphStoreBackend::kCsrSpill);

  // An empty snapshot pins every env-defaulted knob to its documented
  // default, regardless of the live environment.
  const core::FocusConfig pinned{EnvSnapshot{}};
  EXPECT_EQ(pinned.overlap.strategy, align::SeedStrategy::kAllPairs);
  EXPECT_EQ(pinned.graph_store.backend, graph::GraphStoreBackend::kInMemory);

  ASSERT_EQ(unsetenv("FOCUS_SEED_STRATEGY"), 0);
  ASSERT_EQ(unsetenv("FOCUS_GRAPH_BACKEND"), 0);
}

// ---------------------------------------------------------------------------
// AlignScratch job-boundary reset
// ---------------------------------------------------------------------------

TEST(AlignScratch, ResetHonorsSoftCap) {
  align::AlignScratch s;
  EXPECT_EQ(s.footprint_bytes(), 0u);
  s.nw_prev.resize(1024);
  s.nw_moves.resize(4096);
  s.member_diags.resize(8);
  s.member_diags[0].resize(100);
  s.touched.reserve(50);
  const std::size_t warm = s.footprint_bytes();
  ASSERT_GT(warm, 0u);

  s.reset(warm + 1);  // under the cap: stays warm
  EXPECT_EQ(s.footprint_bytes(), warm);
  s.reset(warm - 1);  // over the cap: fully released
  EXPECT_EQ(s.footprint_bytes(), 0u);

  s.nw_cur.resize(64);
  s.reset(0);  // 0 = always release
  EXPECT_EQ(s.footprint_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// ArtifactCache policy
// ---------------------------------------------------------------------------

std::shared_ptr<core::OverlapArtifact> overlap_artifact(std::size_t n) {
  auto artifact = std::make_shared<core::OverlapArtifact>();
  artifact->overlaps.resize(n);
  artifact->overlaps.shrink_to_fit();
  return artifact;
}

TEST(ArtifactCache, HitMissAndLruEviction) {
  const std::size_t unit = svc::artifact_bytes(*overlap_artifact(100));
  svc::ArtifactCache cache(2 * unit + unit / 2);  // room for two entries

  const common::Digest k1{1, 1}, k2{2, 2}, k3{3, 3};
  EXPECT_EQ(cache.get_overlaps(k1), nullptr);  // miss
  cache.put_overlaps(k1, overlap_artifact(100));
  cache.put_overlaps(k2, overlap_artifact(100));
  EXPECT_NE(cache.get_overlaps(k1), nullptr);  // touch k1: k2 is now LRU
  cache.put_overlaps(k3, overlap_artifact(100));

  EXPECT_EQ(cache.get_overlaps(k2), nullptr);  // evicted
  EXPECT_NE(cache.get_overlaps(k1), nullptr);
  EXPECT_NE(cache.get_overlaps(k3), nullptr);

  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
}

TEST(ArtifactCache, OversizedArtifactIsDeclined) {
  const std::size_t unit = svc::artifact_bytes(*overlap_artifact(10));
  svc::ArtifactCache cache(unit);
  cache.put_overlaps(common::Digest{9, 9}, overlap_artifact(100000));
  EXPECT_EQ(cache.get_overlaps(common::Digest{9, 9}), nullptr);
  EXPECT_EQ(cache.stats().declined, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCache, ZeroBudgetMeansUnlimited) {
  svc::ArtifactCache cache(0);
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.put_overlaps(common::Digest{i, i}, overlap_artifact(1000));
  }
  EXPECT_EQ(cache.stats().entries, 16u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// JobScheduler: admission, fair share, cached repeats
// ---------------------------------------------------------------------------

const sim::Dataset& tiny_dataset() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

/// Env-independent small pipeline config (all-pairs overlap for speed).
core::FocusConfig tiny_config() {
  core::FocusConfig cfg{EnvSnapshot{}};
  cfg.overlap.k = 14;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.partitions = 4;
  cfg.ranks = 2;
  cfg.min_contig_length = 150;
  return cfg;
}

TEST(JobScheduler, AdmissionControlBoundsQueueAndShutdownRejects) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> dispatched{0};

  svc::SchedulerConfig sc;
  sc.max_in_flight = 1;
  sc.max_queued = 1;
  sc.before_execute = [&](const std::string&, std::uint64_t) {
    if (dispatched.fetch_add(1) == 0) opened.wait();
  };
  svc::JobScheduler sched(sc);

  auto f1 = sched.submit("a", tiny_dataset().data.reads, tiny_config());
  while (dispatched.load() == 0) std::this_thread::yield();
  auto f2 = sched.submit("a", tiny_dataset().data.reads, tiny_config());
  try {
    sched.submit("a", tiny_dataset().data.reads, tiny_config());
    FAIL() << "third submission must be rejected";
  } catch (const svc::Rejected& r) {
    EXPECT_EQ(r.reason(), svc::Rejected::Reason::kQueueFull);
    EXPECT_NE(std::string(r.what()).find("queue"), std::string::npos);
  }

  gate.set_value();
  EXPECT_GT(f1.get().assembly.contigs.size(), 0u);
  EXPECT_GT(f2.get().assembly.contigs.size(), 0u);

  sched.shutdown();
  try {
    sched.submit("a", tiny_dataset().data.reads, tiny_config());
    FAIL() << "post-shutdown submission must be rejected";
  } catch (const svc::Rejected& r) {
    EXPECT_EQ(r.reason(), svc::Rejected::Reason::kShuttingDown);
  }
}

TEST(JobScheduler, FairShareDispatchesLightTenantFirst) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::mutex order_mu;
  std::vector<std::pair<std::string, std::uint64_t>> order;

  svc::SchedulerConfig sc;
  sc.max_in_flight = 1;
  sc.max_queued = 8;
  sc.before_execute = [&](const std::string& tenant, std::uint64_t id) {
    bool first = false;
    {
      std::lock_guard<std::mutex> lk(order_mu);
      order.emplace_back(tenant, id);
      first = order.size() == 1;
    }
    if (first) opened.wait();
  };
  svc::JobScheduler sched(sc);

  // Tenant a submits three jobs, then tenant b submits one. Once a's first
  // job completes, a carries a positive virtual-time charge while b is at
  // zero, so b's job overtakes a's backlog.
  auto a1 = sched.submit("a", tiny_dataset().data.reads, tiny_config());
  {
    // Ensure a1 is dispatched (and gated) before the backlog is queued.
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(order_mu);
        if (!order.empty()) break;
      }
      std::this_thread::yield();
    }
  }
  auto a2 = sched.submit("a", tiny_dataset().data.reads, tiny_config());
  auto a3 = sched.submit("a", tiny_dataset().data.reads, tiny_config());
  auto b1 = sched.submit("b", tiny_dataset().data.reads, tiny_config());
  gate.set_value();
  a1.get();
  a2.get();
  a3.get();
  b1.get();
  sched.shutdown();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::pair<std::string, std::uint64_t>{"a", 1}));
  EXPECT_EQ(order[1], (std::pair<std::string, std::uint64_t>{"b", 4}));
  EXPECT_EQ(order[2], (std::pair<std::string, std::uint64_t>{"a", 2}));
  EXPECT_EQ(order[3], (std::pair<std::string, std::uint64_t>{"a", 3}));
  EXPECT_GT(sched.tenant_vtime("a"), sched.tenant_vtime("b"));
}

void expect_identical_assembly(const core::AssemblyResult& got,
                               const core::AssemblyResult& want) {
  ASSERT_EQ(got.contigs, want.contigs);
  ASSERT_EQ(got.paths, want.paths);
  EXPECT_EQ(got.reads.size(), want.reads.size());
  EXPECT_EQ(got.overlaps.size(), want.overlaps.size());
  EXPECT_EQ(got.stats.n50, want.stats.n50);
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases);
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut);
  // Cached stages must reproduce the stats a fresh run records, bitwise.
  EXPECT_EQ(got.preprocess_run.makespan, want.preprocess_run.makespan);
  EXPECT_EQ(got.total_vtime(), want.total_vtime());
}

TEST(StageCache, AssemblerRepeatRunHitsAllThreeStages) {
  svc::ArtifactCache cache(0);
  const core::FocusAssembler assembler(tiny_config());

  const core::AssemblyResult cold =
      assembler.assemble(tiny_dataset().data.reads, &cache);
  EXPECT_FALSE(cold.cache_hits.preprocess);
  EXPECT_FALSE(cold.cache_hits.overlaps);
  EXPECT_FALSE(cold.cache_hits.coarsen);
  EXPECT_EQ(cache.stats().entries, 3u);

  const core::AssemblyResult warm =
      assembler.assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(warm.cache_hits.preprocess);
  EXPECT_TRUE(warm.cache_hits.overlaps);
  EXPECT_TRUE(warm.cache_hits.coarsen);
  expect_identical_assembly(warm, cold);

  // A cache-free run is the oracle for both.
  const core::AssemblyResult fresh =
      assembler.assemble(tiny_dataset().data.reads);
  expect_identical_assembly(cold, fresh);
}

TEST(StageCache, KeysChainThroughTheStages) {
  svc::ArtifactCache cache(0);
  core::FocusConfig cfg = tiny_config();
  core::FocusAssembler(cfg).assemble(tiny_dataset().data.reads, &cache);

  // A downstream-only knob keeps all three artifacts valid.
  core::FocusConfig downstream = cfg;
  downstream.min_contig_length = 200;
  const auto reuse = core::FocusAssembler(downstream)
                         .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(reuse.cache_hits.preprocess);
  EXPECT_TRUE(reuse.cache_hits.overlaps);
  EXPECT_TRUE(reuse.cache_hits.coarsen);

  // An overlap knob invalidates overlap + coarsen but not preprocessing.
  core::FocusConfig rekmer = cfg;
  rekmer.overlap.k = 16;
  const auto partial = core::FocusAssembler(rekmer)
                           .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(partial.cache_hits.preprocess);
  EXPECT_FALSE(partial.cache_hits.overlaps);
  EXPECT_FALSE(partial.cache_hits.coarsen);

  // The execution envelope is part of every key: changing the rank count
  // must miss (RunStats depend on it).
  core::FocusConfig reranked = cfg;
  reranked.ranks = 4;
  const auto envelope = core::FocusAssembler(reranked)
                            .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_FALSE(envelope.cache_hits.preprocess);
  EXPECT_FALSE(envelope.cache_hits.overlaps);
  EXPECT_FALSE(envelope.cache_hits.coarsen);
}

TEST(JobScheduler, RepeatSubmissionServedFromCache) {
  svc::SchedulerConfig sc;
  sc.max_in_flight = 1;
  svc::JobScheduler sched(sc);

  const svc::JobResult first =
      sched.submit("a", tiny_dataset().data.reads, tiny_config()).get();
  const svc::JobResult second =
      sched.submit("a", tiny_dataset().data.reads, tiny_config()).get();

  EXPECT_FALSE(first.stats.cache_hits.preprocess);
  EXPECT_TRUE(second.stats.cache_hits.preprocess);
  EXPECT_TRUE(second.stats.cache_hits.overlaps);
  EXPECT_TRUE(second.stats.cache_hits.coarsen);
  expect_identical_assembly(second.assembly, first.assembly);

  const svc::CacheStats stats = sched.cache_stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);

  const auto completed = sched.completed_stats();
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0].job_id, 1u);
  EXPECT_EQ(completed[1].job_id, 2u);
  EXPECT_EQ(completed[0].vtime, completed[1].vtime);  // identical makespans
}

}  // namespace
}  // namespace focus
