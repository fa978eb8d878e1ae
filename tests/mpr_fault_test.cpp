// Fault model tests (DESIGN.md §7): deterministic fault schedules, failure
// detection in the runtime (timeouts, CRC, composite errors), and exact
// recovery by the fault-tolerant distributed drivers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/gfa.hpp"
#include "dist/parallel.hpp"
#include "dist/variants.hpp"
#include "graph/coarsen.hpp"
#include "io/preprocess.hpp"
#include "mpr/fault.hpp"
#include "mpr/ft_phase.hpp"
#include "mpr/runtime.hpp"
#include "partition/mlpart.hpp"
#include "sim/datasets.hpp"

namespace focus {
namespace {

using dist::AsmGraph;
using dist::SimplifyConfig;
using dist::SimplifyStats;

// --- Fault plan determinism -------------------------------------------------

TEST(FaultPlan, EmptyByDefaultAndPure) {
  mpr::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.seed = 42;
  EXPECT_TRUE(plan.empty()) << "a seed alone injects nothing";
  plan.p_drop = 0.5;
  EXPECT_FALSE(plan.empty());
  for (Rank r = 0; r < 4; ++r) {
    for (std::uint64_t op = 1; op <= 64; ++op) {
      const auto a = plan.decide(r, op);
      const auto b = plan.decide(r, op);
      EXPECT_EQ(a.drop, b.drop) << "decide must be pure";
    }
  }
}

TEST(FaultPlan, CrashPointFiresExactlyAtItsOp) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 3});
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.decide(1, 3).crash);
  EXPECT_FALSE(plan.decide(1, 2).crash);
  EXPECT_FALSE(plan.decide(1, 4).crash);
  EXPECT_FALSE(plan.decide(2, 3).crash);
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  mpr::FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.p_drop = b.p_drop = 0.5;
  int differs = 0;
  for (std::uint64_t op = 1; op <= 256; ++op) {
    if (a.decide(0, op).drop != b.decide(0, op).drop) ++differs;
  }
  EXPECT_GT(differs, 32);
}

// --- CRC32 and hostile message lengths --------------------------------------

TEST(Crc32, MatchesIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(mpr::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                       check.size()),
            0xcbf43926u);
  EXPECT_EQ(mpr::crc32(nullptr, 0), 0u);
}

TEST(MessageHardening, HostileVectorLengthRejectedBeforeAllocation) {
  mpr::Message msg;
  // A corrupted 8-byte length prefix claiming ~1 exabyte of payload.
  msg.pack(static_cast<std::uint64_t>(1) << 60);
  msg.pack(std::uint32_t{7});
  EXPECT_THROW(msg.unpack_vector<std::uint64_t>(), Error);
}

TEST(MessageHardening, HostileStringLengthRejectedBeforeAllocation) {
  mpr::Message msg;
  msg.pack(static_cast<std::uint64_t>(1) << 60);
  EXPECT_THROW(msg.unpack_string(), Error);
}

TEST(MessageHardening, VectorLengthMustMatchRemainderExactly) {
  mpr::Message msg;
  msg.pack(std::uint64_t{3});               // claims 3 elements…
  msg.pack_vector(std::vector<int>{1, 2});  // …but fewer bytes follow
  EXPECT_THROW(msg.unpack_vector<std::uint64_t>(), Error);
}

// --- Runtime failure detection ----------------------------------------------

TEST(RuntimeFault, RecvThrowsCorruptMessageOnChecksumMismatch) {
  mpr::FaultPlan plan;
  plan.seed = 7;
  plan.p_corrupt = 1.0;
  EXPECT_THROW(
      mpr::Runtime::execute(
          2,
          [](mpr::Comm& comm) {
            if (comm.rank() == 1) {
              mpr::Message msg;
              msg.pack_vector(std::vector<int>{1, 2, 3});
              comm.send(0, 5, std::move(msg));
            } else {
              comm.recv(1, 5);
            }
          },
          {}, plan),
      mpr::CorruptMessage);
}

TEST(RuntimeFault, TryRecvReportsCorruptInsteadOfThrowing) {
  mpr::FaultPlan plan;
  plan.seed = 7;
  plan.p_corrupt = 1.0;
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(
      2,
      [&](mpr::Comm& comm) {
        if (comm.rank() == 1) {
          mpr::Message msg;
          msg.pack_vector(std::vector<int>{1, 2, 3});
          comm.send(0, 5, std::move(msg));
        } else {
          status = comm.try_recv(1, 5, 1.0).status;
        }
      },
      {}, plan);
  EXPECT_EQ(status, mpr::RecvStatus::kCorrupt);
  EXPECT_EQ(stats.ranks_failed, 0);
}

TEST(RuntimeFault, TimedRecvTimesOutOnTerminatedSender) {
  double vtime_after = -1.0;
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(2, [&](mpr::Comm& comm) {
    if (comm.rank() == 0) {
      const auto res = comm.try_recv(1, 7, 0.25);
      status = res.status;
      vtime_after = comm.vtime();
    }
    // Rank 1 terminates without ever sending.
  });
  EXPECT_EQ(status, mpr::RecvStatus::kTimeout);
  EXPECT_DOUBLE_EQ(vtime_after, 0.25) << "deadline charged to the clock";
  EXPECT_DOUBLE_EQ(stats.recovery_vtime, 0.25);
}

TEST(RuntimeFault, TimedRecvTimesOutOnQuiescence) {
  // Rank 1 is alive but blocked on a message rank 0 has not sent: the
  // configuration is terminal, so rank 0's deadline must fire — after which
  // rank 0 unblocks rank 1 and both finish cleanly.
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(2, [&](mpr::Comm& comm) {
    if (comm.rank() == 0) {
      status = comm.try_recv(1, 7, 0.5).status;
      mpr::Message msg;
      msg.pack(std::uint32_t{1});
      comm.send(1, 8, std::move(msg));
    } else {
      auto msg = comm.recv(0, 8);
      EXPECT_EQ(msg.unpack<std::uint32_t>(), 1u);
    }
  });
  EXPECT_EQ(status, mpr::RecvStatus::kTimeout);
  EXPECT_DOUBLE_EQ(stats.recovery_vtime, 0.5);
  EXPECT_EQ(stats.ranks_failed, 0);
}

TEST(RuntimeFault, UntimedRecvFromDeadRankThrowsRankFailed) {
  EXPECT_THROW(mpr::Runtime::execute(2,
                                     [](mpr::Comm& comm) {
                                       if (comm.rank() == 0) {
                                         comm.recv(1, 3);
                                       }
                                     }),
               mpr::RankFailed);
}

TEST(RuntimeFault, CompositeErrorListsEveryFailedRank) {
  try {
    mpr::Runtime::execute(3, [](mpr::Comm& comm) {
      if (comm.rank() == 1) FOCUS_THROW("boom-one");
      if (comm.rank() == 2) FOCUS_THROW("boom-two");
    });
    FAIL() << "expected a composite error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("boom-one"), std::string::npos) << what;
    EXPECT_NE(what.find("boom-two"), std::string::npos) << what;
  }
}

TEST(RuntimeFault, InjectedCrashIsCountedNotRethrown) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});  // rank 1 dies at its first op
  const auto stats = mpr::Runtime::execute(
      2,
      [](mpr::Comm& comm) {
        if (comm.rank() == 1) {
          mpr::Message msg;
          msg.pack(std::uint32_t{0});
          comm.send(0, 2, std::move(msg));  // crashes here
        } else {
          EXPECT_EQ(comm.try_recv(1, 2, 0.125).status,
                    mpr::RecvStatus::kTimeout);
        }
      },
      {}, plan);
  EXPECT_EQ(stats.ranks_failed, 1);
  EXPECT_EQ(stats.messages, 0u) << "the crashed send delivered nothing";
}

// --- Shared collect loop (mpr/ft_phase.hpp) ---------------------------------

constexpr int kLoopRanks = 4;
constexpr std::uint32_t kLoopParts = 16;

// A partition's record is a pure function of its id, like every FT scan.
std::uint64_t loop_record(std::uint32_t p) {
  return 0x9e3779b97f4a7c15ull * (p + 1);
}

struct LoopOutcome {
  std::vector<std::uint64_t> records;
  std::vector<int> scans;  // times each partition was scanned, any rank
  mpr::RunStats stats;
};

// One collect phase of 16 partitions over 4 ranks, driven directly through
// the recovery protocol's public entry points.
LoopOutcome run_collect_loop(const mpr::FaultPlan& plan) {
  std::vector<std::atomic<int>> scans(kLoopParts);
  const std::function<std::uint64_t(std::uint32_t, double*)> scan =
      [&](std::uint32_t p, double* work) {
        scans[p].fetch_add(1);
        *work += 1.0;
        return loop_record(p);
      };
  const std::function<std::uint64_t(mpr::Message&)> unpack =
      [](mpr::Message& m) { return m.unpack<std::uint64_t>(); };
  const auto scan_and_pack = [&](std::uint32_t, std::uint32_t p,
                                 mpr::Message& frame, double* work) {
    frame.pack(scan(p, work));
  };
  const mpr::FaultConfig fault;
  LoopOutcome out;
  mpr::SymWal wal;
  wal.live.assign(kLoopRanks, 1);
  out.stats = mpr::Runtime::execute(
      kLoopRanks,
      [&](mpr::Comm& comm) {
        mpr::ft_sym_drive(comm, wal, fault, scan_and_pack,
                          [&](std::uint32_t phase_start) {
                            if (phase_start > 0) return;
                            out.records = mpr::sym_collect_phase<std::uint64_t>(
                                comm, wal, kLoopParts, 0, fault, scan, unpack);
                          });
      },
      {}, plan);
  for (const auto& n : scans) out.scans.push_back(n.load());
  return out;
}

// Rank-major canonical order: partitions sorted by (p % ranks, p).
std::vector<std::uint64_t> canonical_loop_records() {
  std::vector<std::uint64_t> want;
  for (std::uint32_t r = 0; r < kLoopRanks; ++r) {
    for (std::uint32_t p = r; p < kLoopParts; p += kLoopRanks) {
      want.push_back(loop_record(p));
    }
  }
  return want;
}

// A serving rank's ops are: 1 = receive its scan command, 2 = send its
// record frame. Crashing op 2 kills it after it scanned but before anything
// of its arrived, so exactly its own partitions must be scanned a second time.
TEST(CollectLoopFault, LostRankIsTheOnlyOneRescanned) {
  const auto clean = run_collect_loop({});
  EXPECT_EQ(clean.records, canonical_loop_records());
  EXPECT_EQ(clean.stats.retries, 0u);
  for (std::uint32_t p = 0; p < kLoopParts; ++p) {
    EXPECT_EQ(clean.scans[p], 1) << "partition " << p;
  }

  mpr::FaultPlan plan;
  plan.crashes.push_back({2, 2});
  const auto got = run_collect_loop(plan);
  EXPECT_EQ(got.records, clean.records);
  EXPECT_EQ(got.stats.retries, 1u);
  EXPECT_EQ(got.stats.ranks_failed, 1);
  for (std::uint32_t p = 0; p < kLoopParts; ++p) {
    EXPECT_EQ(got.scans[p], p % kLoopRanks == 2 ? 2 : 1) << "partition " << p;
  }
}

// Two serving ranks die in the same round: the collector drains the round
// instead of stopping at the first failure, so one recovery round finds both.
TEST(CollectLoopFault, TwoDeathsInOneRoundCostOneRetry) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 2});
  plan.crashes.push_back({3, 2});
  const auto got = run_collect_loop(plan);
  EXPECT_EQ(got.records, canonical_loop_records());
  EXPECT_EQ(got.stats.retries, 1u);
  EXPECT_EQ(got.stats.ranks_failed, 2);
  for (std::uint32_t p = 0; p < kLoopParts; ++p) {
    const bool lost = p % kLoopRanks == 1 || p % kLoopRanks == 3;
    EXPECT_EQ(got.scans[p], lost ? 2 : 1) << "partition " << p;
  }
}

// --- Fault-tolerant drivers -------------------------------------------------

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

/// 20-contig chain over a 3 kbp genome with transitive shortcuts, two junk
/// spurs and one contained fragment — every simplify phase has work to do.
AsmGraph make_fault_graph(std::uint64_t seed) {
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

std::vector<PartId> striped_partition(const AsmGraph& g, PartId parts) {
  std::vector<PartId> part(g.node_count());
  const std::size_t per =
      (g.node_count() + static_cast<std::size_t>(parts) - 1) /
      static_cast<std::size_t>(parts);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    part[v] = static_cast<PartId>(v / per);
  }
  return part;
}

constexpr PartId kParts = 4;

struct DriverOutcome {
  SimplifyStats stats;
  mpr::RunStats simplify_run;
  std::vector<std::vector<NodeId>> paths;
  mpr::RunStats traverse_run;
};

DriverOutcome run_drivers(int nranks, const mpr::FaultPlan& plan = {},
                          const mpr::FaultConfig& fault = {}) {
  AsmGraph g = make_fault_graph(100);
  const auto part = striped_partition(g, kParts);
  DriverOutcome out;
  auto s = dist::simplify_parallel(g, part, kParts, SimplifyConfig{}, nranks,
                                   {}, 1, plan, fault);
  out.stats = s.stats;
  out.simplify_run = s.run;
  auto t = dist::traverse_parallel(g, part, kParts, nranks, {}, 1, plan, fault);
  out.paths = std::move(t.paths);
  out.traverse_run = t.run;
  return out;
}

void expect_same_assembly(const DriverOutcome& got, const DriverOutcome& want,
                          const std::string& context) {
  EXPECT_EQ(got.stats.transitive_edges, want.stats.transitive_edges) << context;
  EXPECT_EQ(got.stats.false_edges, want.stats.false_edges) << context;
  EXPECT_EQ(got.stats.contained_nodes, want.stats.contained_nodes) << context;
  EXPECT_EQ(got.stats.verified_edges, want.stats.verified_edges) << context;
  EXPECT_EQ(got.stats.tip_nodes, want.stats.tip_nodes) << context;
  EXPECT_EQ(got.stats.bubble_nodes, want.stats.bubble_nodes) << context;
  ASSERT_EQ(got.paths, want.paths) << context;
}

// Pre-fault-tolerance RunStats captured from the seed build: an empty plan
// must keep the fast path bit-identical, makespans included.
TEST(DistFault, EmptyPlanIsByteIdenticalToSeedGoldens) {
  struct Golden {
    int ranks;
    double s_makespan;
    std::uint64_t s_messages, s_bytes;
    double t_makespan;
    std::uint64_t t_messages, t_bytes;
  };
  const Golden goldens[] = {
      {1, 0x1.2f626e343b1b1p-11, 0, 0, 0x1.8d48d35882223p-22, 0, 0},
      {2, 0x1.a4ae284f88063p-12, 4, 148, 0x1.00cac4f988867p-16, 1, 76},
      {3, 0x1.4298b474efc9cp-12, 8, 260, 0x1.52d528d5a5fe2p-16, 2, 72},
      {4, 0x1.11b0e00fd33a5p-12, 12, 324, 0x1.52f784ed764bep-16, 3, 116},
  };
  for (const Golden& gold : goldens) {
    const auto out = run_drivers(gold.ranks);
    EXPECT_EQ(out.simplify_run.makespan, gold.s_makespan) << gold.ranks;
    EXPECT_EQ(out.simplify_run.messages, gold.s_messages) << gold.ranks;
    EXPECT_EQ(out.simplify_run.bytes, gold.s_bytes) << gold.ranks;
    EXPECT_EQ(out.traverse_run.makespan, gold.t_makespan) << gold.ranks;
    EXPECT_EQ(out.traverse_run.messages, gold.t_messages) << gold.ranks;
    EXPECT_EQ(out.traverse_run.bytes, gold.t_bytes) << gold.ranks;
    EXPECT_EQ(out.simplify_run.retries, 0u);
    EXPECT_EQ(out.simplify_run.ranks_failed, 0);
    EXPECT_EQ(out.simplify_run.recovery_vtime, 0.0);
    EXPECT_EQ(out.paths.size(), 3u) << gold.ranks;
  }
}

// Crash each serving rank of a 4-rank run at every op position it can
// reach; the recovered assembly must be exactly the fault-free master one,
// and the failure must be reported in the stats.
TEST(DistFault, CrashAtEveryWorkerOpRecoversExactAssembly) {
  const int nranks = 4;
  const auto want = run_drivers(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 10; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_drivers(nranks, plan);
      const std::string context = "worker " + std::to_string(worker) +
                                  " crashed at op " + std::to_string(op);
      expect_same_assembly(got, want, context);
      // A serving rank runs 9 simplify ops (4 × recv+send, final recv), so
      // every op in that range must actually kill it.
      if (op <= 9) {
        EXPECT_EQ(got.simplify_run.ranks_failed, 1) << context;
      }
      if (op <= 2) {
        EXPECT_GE(got.simplify_run.retries, 1u) << context;
        EXPECT_GT(got.simplify_run.recovery_vtime, 0.0) << context;
      }
    }
  }
}

// A repeated run under the same storm reproduces the RunStats bit for bit.
TEST(DistFault, SameSeedGivesBitIdenticalRunStats) {
  mpr::FaultPlan plan;
  plan.seed = 99;
  plan.p_drop = 0.10;
  plan.p_duplicate = 0.05;
  plan.p_corrupt = 0.05;
  plan.p_delay = 0.10;
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  const auto a = run_drivers(4, plan, fault);
  const auto b = run_drivers(4, plan, fault);
  EXPECT_EQ(a.simplify_run.makespan, b.simplify_run.makespan);
  EXPECT_EQ(a.simplify_run.rank_vtime, b.simplify_run.rank_vtime);
  EXPECT_EQ(a.simplify_run.messages, b.simplify_run.messages);
  EXPECT_EQ(a.simplify_run.bytes, b.simplify_run.bytes);
  EXPECT_EQ(a.simplify_run.retries, b.simplify_run.retries);
  EXPECT_EQ(a.simplify_run.ranks_failed, b.simplify_run.ranks_failed);
  EXPECT_EQ(a.simplify_run.recovery_vtime, b.simplify_run.recovery_vtime);
  EXPECT_EQ(a.traverse_run.makespan, b.traverse_run.makespan);
  EXPECT_EQ(a.traverse_run.rank_vtime, b.traverse_run.rank_vtime);
  EXPECT_EQ(a.traverse_run.messages, b.traverse_run.messages);
  EXPECT_EQ(a.traverse_run.bytes, b.traverse_run.bytes);
  EXPECT_EQ(a.traverse_run.retries, b.traverse_run.retries);
  EXPECT_EQ(a.traverse_run.ranks_failed, b.traverse_run.ranks_failed);
  expect_same_assembly(b, a, "same seed");
}

// --- Rotating-coordinator recovery (DESIGN.md §7b) --------------------------

// A crash point past every op injects nothing, but the non-empty plan runs
// the recovery driver, which must reproduce the master protocol's run.
TEST(DistFaultSymmetric, FaultFreeMatchesMasterProtocol) {
  mpr::FaultPlan idle;
  idle.crashes.push_back({0, std::numeric_limits<std::uint64_t>::max()});
  for (const int nranks : {1, 2, 3, 4}) {
    const auto want = run_drivers(nranks);
    const auto got = run_drivers(nranks, idle);
    expect_same_assembly(got, want, "ranks " + std::to_string(nranks));
    EXPECT_EQ(got.simplify_run.retries, 0u);
    EXPECT_EQ(got.simplify_run.ranks_failed, 0);
    EXPECT_EQ(got.traverse_run.ranks_failed, 0);
  }
}

// Crash EVERY rank — the coordinator included — at every op position. Killing
// rank 0 forces the coordinator rotation: a successor inherits the log,
// fast-forwards through the committed phases, and finishes the run; the
// recovered assembly must be exactly the fault-free master one.
TEST(DistFaultSymmetric, CrashAtEveryOpOnEveryRankRecoversExactAssembly) {
  const int nranks = 3;
  const auto want = run_drivers(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 10; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got = run_drivers(nranks, plan);
      const std::string context = "rank " + std::to_string(victim) +
                                  " crashed at op " + std::to_string(op);
      expect_same_assembly(got, want, context);
      // Simplify runs 9 worker ops (4 × recv+send, final recv) and more on
      // the coordinator, so every op in 1..9 actually kills the victim.
      if (op <= 9) {
        EXPECT_EQ(got.simplify_run.ranks_failed, 1) << context;
      }
    }
  }
}

TEST(DistFaultSymmetric, SingleRankToleratesPlanWithoutPeers) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});
  const auto want = run_drivers(1);
  const auto got = run_drivers(1, plan);
  expect_same_assembly(got, want, "single-rank symmetric");
  EXPECT_EQ(got.simplify_run.ranks_failed, 0);
}

// The same storm plus a coordinator crash: the rotation to a successor is
// as deterministic as the rest of the recovery.
TEST(DistFaultSymmetric, SameSeedGivesBitIdenticalRunStats) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({0, 5});
  plan.seed = 99;
  plan.p_drop = 0.10;
  plan.p_duplicate = 0.05;
  plan.p_corrupt = 0.05;
  plan.p_delay = 0.10;
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  const auto a = run_drivers(4, plan, fault);
  const auto b = run_drivers(4, plan, fault);
  EXPECT_EQ(a.simplify_run.makespan, b.simplify_run.makespan);
  EXPECT_EQ(a.simplify_run.rank_vtime, b.simplify_run.rank_vtime);
  EXPECT_EQ(a.simplify_run.messages, b.simplify_run.messages);
  EXPECT_EQ(a.simplify_run.bytes, b.simplify_run.bytes);
  EXPECT_EQ(a.simplify_run.retries, b.simplify_run.retries);
  EXPECT_EQ(a.simplify_run.ranks_failed, b.simplify_run.ranks_failed);
  EXPECT_EQ(a.simplify_run.recovery_vtime, b.simplify_run.recovery_vtime);
  EXPECT_EQ(a.traverse_run.makespan, b.traverse_run.makespan);
  EXPECT_EQ(a.traverse_run.messages, b.traverse_run.messages);
  expect_same_assembly(a, b, "symmetric same seed");
}

// 75 seeds of mixed message faults (drops, duplicates, corruption, delays)
// against the fault-free master oracle: a falsely-suspected rank becomes an
// orphan that must still terminate and agree. Run under TSan/ASan via
// tools/run_sanitizers.sh (ctest label: fault).
TEST(DistFaultSymmetric, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 4;
  const auto want = run_drivers(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 75; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 13 + 3;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    const auto got = run_drivers(nranks, plan, fault);
    expect_same_assembly(got, want,
                         "symmetric trial " + std::to_string(trial));
  }
}

TEST(DistFaultSymmetric, RetriesExhaustedThrows) {
  mpr::FaultPlan plan;
  plan.seed = 5;
  plan.p_drop = 1.0;
  mpr::FaultConfig fault;
  fault.max_retries = 0;
  EXPECT_THROW(run_drivers(3, plan, fault), Error);
}

// --- Fault-tolerant distributed-index overlap driver ------------------------

/// Small simulated read set (~100 preprocessed reads): two query blocks of
/// the FT overlap driver, enough for reassignments to move real work.
const io::ReadSet& overlap_fault_reads() {
  static const io::ReadSet reads = [] {
    const sim::Dataset d = sim::make_dataset(1, /*scale=*/0.13,
                                             /*coverage=*/3.0);
    return io::preprocess(d.data.reads, {});
  }();
  return reads;
}

std::vector<align::Overlap> run_overlap_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}) {
  return dist::overlap_parallel(overlap_fault_reads(), align::OverlapperConfig{},
                                nranks, {}, plan, fault)
      .overlaps;
}

void expect_same_overlaps(const std::vector<align::Overlap>& got,
                          const std::vector<align::Overlap>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].query == want[i].query && got[i].ref == want[i].ref &&
                got[i].length == want[i].length &&
                got[i].identity == want[i].identity &&
                got[i].kind == want[i].kind)
        << context << " record " << i;
  }
}

TEST(OverlapFault, EmptyPlanMatchesAllPairsAndShardedPaths) {
  // The FT envelope with no plan is the sharded fast path; both must equal
  // the all-pairs serial reference on the same reads.
  const auto want =
      align::find_overlaps_serial(overlap_fault_reads(), align::OverlapperConfig{});
  for (const int nranks : {1, 3}) {
    expect_same_overlaps(run_overlap_driver(nranks), want,
                         "fault-free ranks " + std::to_string(nranks));
  }
}

// Crash each serving rank of a 4-rank run at every op position it can reach
// during the overlap phase; the recovered overlap set must be exactly the
// fault-free one.
TEST(OverlapFault, CrashAtEveryWorkerOpRecoversExactOverlaps) {
  const int nranks = 4;
  const auto want = run_overlap_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_overlap_driver(nranks, plan);
      expect_same_overlaps(got, want,
                           "worker " + std::to_string(worker) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

// Any rank may die — rank 0, the initial coordinator, included — and a
// successor replays the phase from the replicated WAL.
TEST(OverlapFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_overlap_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got = run_overlap_driver(nranks, plan);
      expect_same_overlaps(got, want,
                           "symmetric rank " + std::to_string(victim) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

// With one rank the coordinator scans every block itself; a plan that would
// crash rank 1 has nobody to kill.
TEST(OverlapFault, SingleRankMasterToleratesPlanWithoutWorkers) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});
  expect_same_overlaps(run_overlap_driver(1, plan), run_overlap_driver(1),
                       "single-rank overlap");
}

// Mixed message faults (drops, duplicates, corruption, delays) over several
// seeds: replay recovery must reproduce the fault-free overlap set each time.
TEST(OverlapFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_overlap_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 13 + 3;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    expect_same_overlaps(run_overlap_driver(nranks, plan, fault), want,
                         "trial " + std::to_string(trial));
  }
}

// --- Fault-tolerant preprocess driver (stage 1) -----------------------------

const io::ReadSet& preprocess_fault_raw_reads() {
  static const io::ReadSet reads =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/3.0).data.reads;
  return reads;
}

void expect_same_reads(const io::ReadSet& got, const io::ReadSet& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].name == want[i].name && got[i].seq == want[i].seq &&
                got[i].qual == want[i].qual &&
                got[i].origin == want[i].origin &&
                got[i].reverse == want[i].reverse)
        << context << " read " << i;
  }
}

io::ParallelPreprocessResult run_preprocess_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}) {
  return io::preprocess_parallel(preprocess_fault_raw_reads(), {}, nranks, {},
                                 plan, fault);
}

TEST(PreprocessFault, EmptyPlanMatchesSerialReference) {
  io::PreprocessStats want_stats;
  const auto want =
      io::preprocess(preprocess_fault_raw_reads(), {}, &want_stats);
  for (const int nranks : {1, 3}) {
    const auto got = run_preprocess_driver(nranks);
    expect_same_reads(got.reads, want,
                      "fault-free ranks " + std::to_string(nranks));
    EXPECT_EQ(got.stats.input_reads, want_stats.input_reads);
    EXPECT_EQ(got.stats.dropped_short, want_stats.dropped_short);
    EXPECT_EQ(got.stats.output_reads, want_stats.output_reads);
    EXPECT_EQ(got.stats.bases_trimmed, want_stats.bases_trimmed);
  }
}

// Crash each serving rank of a 4-rank run at every op position it can reach
// during stage 1; the recovered read set and stats must be exactly the
// fault-free ones.
TEST(PreprocessFault, CrashAtEveryWorkerOpRecoversExactReads) {
  const int nranks = 4;
  const auto want = run_preprocess_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_preprocess_driver(nranks, plan);
      const std::string context = "worker " + std::to_string(worker) +
                                  " crashed at op " + std::to_string(op);
      expect_same_reads(got.reads, want.reads, context);
      EXPECT_EQ(got.stats.output_reads, want.stats.output_reads) << context;
    }
  }
}

// Crash EVERY rank — the initial coordinator included — at every op
// position; a successor must finish from the WAL.
TEST(PreprocessFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_preprocess_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got = run_preprocess_driver(nranks, plan);
      expect_same_reads(got.reads, want.reads,
                        "rank " + std::to_string(victim) + " crashed at op " +
                            std::to_string(op));
    }
  }
}

TEST(PreprocessFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_preprocess_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 17 + 5;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    const auto got = run_preprocess_driver(nranks, plan, fault);
    expect_same_reads(got.reads, want.reads,
                      "trial " + std::to_string(trial));
  }
}

// --- Fault-tolerant partition driver (stage 5) ------------------------------

const graph::GraphHierarchy& partition_fault_hierarchy() {
  static const graph::GraphHierarchy h = [] {
    Rng rng(77);
    graph::GraphBuilder b(120);
    for (NodeId v = 1; v < 120; ++v) {
      b.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
                 1 + static_cast<Weight>(rng.next_below(50)));
    }
    for (int i = 0; i < 240; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(120));
      const auto v = static_cast<NodeId>(rng.next_below(120));
      if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.next_below(50)));
    }
    graph::CoarsenConfig cfg;
    cfg.min_nodes = 8;
    cfg.max_levels = 5;
    return graph::build_multilevel(b.build(), cfg);
  }();
  return h;
}

partition::ParallelPartitionResult run_partition_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}) {
  return partition::partition_hierarchy_parallel(
      partition_fault_hierarchy(), 4, partition::PartitionerConfig{}, nranks,
      {}, plan, fault);
}

void expect_same_partitioning(const partition::HierarchyPartitioning& got,
                              const partition::HierarchyPartitioning& want,
                              const std::string& context) {
  EXPECT_EQ(got.parts, want.parts) << context;
  EXPECT_EQ(got.finest_cut, want.finest_cut) << context;
  ASSERT_EQ(got.levels, want.levels) << context;
}

TEST(PartitionFault, EmptyPlanMatchesFaultFreeDriver) {
  const auto want = run_partition_driver(3);
  // The FT dispatch must not change the fault-free path at any rank count,
  // and the fault-free path itself equals the serial partitioner.
  const auto serial = partition::partition_hierarchy(
      partition_fault_hierarchy(), 4, partition::PartitionerConfig{});
  EXPECT_EQ(want.partitioning.levels, serial.levels);
  EXPECT_EQ(want.partitioning.finest_cut, serial.finest_cut);
}

// Crash each serving rank of a 4-rank run at every op position it can reach
// during the bisection and refinement phases; the recovered partitioning must
// be exactly the fault-free (== serial) one.
TEST(PartitionFault, CrashAtEveryWorkerOpRecoversExactPartitioning) {
  const int nranks = 4;
  const auto want = run_partition_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 8; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_partition_driver(nranks, plan);
      expect_same_partitioning(got.partitioning, want.partitioning,
                               "worker " + std::to_string(worker) +
                                   " crashed at op " + std::to_string(op));
    }
  }
}

// Crash EVERY rank at every op position. A successor coordinator must replay
// the committed bisection steps from the WAL to rebuild the evolving labels,
// then finish the remaining phases.
TEST(PartitionFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_partition_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 8; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got = run_partition_driver(nranks, plan);
      expect_same_partitioning(got.partitioning, want.partitioning,
                               "rank " + std::to_string(victim) +
                                   " crashed at op " + std::to_string(op));
    }
  }
}

TEST(PartitionFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_partition_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 19 + 7;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    const auto got = run_partition_driver(nranks, plan, fault);
    expect_same_partitioning(got.partitioning, want.partitioning,
                             "trial " + std::to_string(trial));
  }
}

// --- Fault-tolerant variant scan + GFA emission -----------------------------

/// Three SNP bubbles along a backbone chain — several variant sites spread
/// over the striped partitions.
AsmGraph make_variant_fault_graph() {
  Rng rng(55);
  AsmGraph g;
  NodeId prev = g.add_node(random_seq(rng, 200), 10);
  for (int bubble = 0; bubble < 3; ++bubble) {
    std::string allele_a = random_seq(rng, 250);
    std::string allele_b = allele_a;
    for (int s = 0; s < 3; ++s) {
      const std::size_t pos = 20 + static_cast<std::size_t>(s) * 40;
      allele_b[pos] = allele_b[pos] == 'A' ? 'C' : 'A';
    }
    const NodeId a = g.add_node(allele_a, 8);
    const NodeId b = g.add_node(allele_b, 3);
    const NodeId post = g.add_node(random_seq(rng, 200), 10);
    g.add_edge(prev, a, 50);
    g.add_edge(prev, b, 50);
    g.add_edge(a, post, 50);
    g.add_edge(b, post, 50);
    prev = post;
  }
  return g;
}

std::vector<dist::Variant> run_variants_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}) {
  static const AsmGraph g = make_variant_fault_graph();
  static const auto part = striped_partition(g, kParts);
  return dist::find_variants_parallel(g, part, kParts, {}, nranks, {}, plan,
                                      fault)
      .variants;
}

void expect_same_variants(const std::vector<dist::Variant>& got,
                          const std::vector<dist::Variant>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].branch_point == want[i].branch_point &&
                got[i].merge_point == want[i].merge_point &&
                got[i].major_allele == want[i].major_allele &&
                got[i].minor_allele == want[i].minor_allele &&
                got[i].identity == want[i].identity)
        << context << " record " << i;
  }
}

TEST(VariantsFault, EmptyPlanMatchesSerialReference) {
  const auto want = dist::find_variants_serial(make_variant_fault_graph(), {});
  EXPECT_EQ(want.size(), 3u) << "fixture must contain three bubbles";
  for (const int nranks : {1, 3}) {
    expect_same_variants(run_variants_driver(nranks), want,
                         "fault-free ranks " + std::to_string(nranks));
  }
}

TEST(VariantsFault, CrashAtEveryWorkerOpRecoversExactVariants) {
  const int nranks = 4;
  const auto want = run_variants_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 5; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      expect_same_variants(run_variants_driver(nranks, plan), want,
                           "worker " + std::to_string(worker) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

TEST(VariantsFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_variants_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 5; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      expect_same_variants(run_variants_driver(nranks, plan), want,
                           "rank " + std::to_string(victim) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

TEST(VariantsFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_variants_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 23 + 9;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    expect_same_variants(run_variants_driver(nranks, plan, fault), want,
                         "trial " + std::to_string(trial));
  }
}

// --- Fault-tolerant GFA emission --------------------------------------------

/// A 600-node chain: three segment-id blocks and three link-id blocks, so
/// reassignment after a crash moves real rendering work.
AsmGraph make_gfa_fault_graph() {
  Rng rng(66);
  AsmGraph g;
  std::vector<NodeId> chain;
  for (int i = 0; i < 600; ++i) {
    chain.push_back(g.add_node(random_seq(rng, 120), 2));
  }
  for (int i = 0; i + 1 < 600; ++i) g.add_edge(chain[i], chain[i + 1], 40);
  return g;
}

std::string run_gfa_driver(int nranks, const mpr::FaultPlan& plan = {},
                           const mpr::FaultConfig& fault = {}) {
  static const AsmGraph g = make_gfa_fault_graph();
  return dist::write_gfa_parallel(g, {}, nranks, {}, plan, fault).gfa;
}

TEST(GfaFault, EmptyPlanMatchesSerialBytes) {
  std::ostringstream want;
  dist::write_gfa(want, make_gfa_fault_graph(), {});
  for (const int nranks : {1, 3}) {
    EXPECT_EQ(run_gfa_driver(nranks), want.str())
        << "fault-free ranks " << nranks;
  }
}

TEST(GfaFault, CrashAtEveryWorkerOpRecoversExactBytes) {
  const int nranks = 4;
  const auto want = run_gfa_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      EXPECT_EQ(run_gfa_driver(nranks, plan), want)
          << "worker " << worker << " crashed at op " << op;
    }
  }
}

TEST(GfaFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_gfa_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      EXPECT_EQ(run_gfa_driver(nranks, plan), want)
          << "rank " << victim << " crashed at op " << op;
    }
  }
}

TEST(GfaFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_gfa_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 29 + 11;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    EXPECT_EQ(run_gfa_driver(nranks, plan, fault), want) << "trial " << trial;
  }
}

// --- FOCUS_FAULT_* environment parsing --------------------------------------

// RAII save/restore so the suite never leaks an environment change.
class ScopedEnvVar {
 public:
  explicit ScopedEnvVar(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~ScopedEnvVar() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

void expect_env_error(const std::function<void()>& parse,
                      const std::string& needle) {
  try {
    parse();
    FAIL() << "expected a focus::Error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FaultEnv, MalformedSeedNamesTheOffendingValue) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  seed.set("banana");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "banana");
  seed.set("12x");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "12x");
}

TEST(FaultEnv, RateOutsideUnitIntervalRejected) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  ScopedEnvVar drop("FOCUS_FAULT_DROP");
  seed.set("7");
  drop.set("1.5");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "1.5");
  drop.set("-0.1");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "-0.1");
  drop.set("half");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "half");
  drop.set("0.25");
  EXPECT_DOUBLE_EQ(mpr::FaultPlan::from_env().p_drop, 0.25);
}

TEST(FaultEnv, RateWithoutSeedRejectedAsInert) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  ScopedEnvVar drop("FOCUS_FAULT_DROP");
  ::unsetenv("FOCUS_FAULT_SEED");
  drop.set("0.25");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); },
                   "FOCUS_FAULT_SEED");
  seed.set("7");
  EXPECT_DOUBLE_EQ(mpr::FaultPlan::from_env().p_drop, 0.25);
}

TEST(FaultEnv, MaxRetriesValidated) {
  ScopedEnvVar retries("FOCUS_FAULT_MAX_RETRIES");
  retries.set("0");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "0");
  retries.set("1001");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "1001");
  retries.set("many");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "many");
  retries.set("16");
  EXPECT_EQ(mpr::FaultConfig::from_env().max_retries, 16);
}

TEST(FaultEnv, RecvTimeoutValidated) {
  ScopedEnvVar timeout("FOCUS_FAULT_RECV_TIMEOUT");
  timeout.set("-1");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "-1");
  timeout.set("0");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "0");
  timeout.set("soon");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "soon");
  timeout.set("0.5");
  EXPECT_DOUBLE_EQ(mpr::FaultConfig::from_env().recv_timeout_vtime, 0.5);
}

TEST(FaultEnv, DefaultsWhenUnset) {
  ScopedEnvVar retries("FOCUS_FAULT_MAX_RETRIES");
  ScopedEnvVar timeout("FOCUS_FAULT_RECV_TIMEOUT");
  ::unsetenv("FOCUS_FAULT_MAX_RETRIES");
  ::unsetenv("FOCUS_FAULT_RECV_TIMEOUT");
  const auto config = mpr::FaultConfig::from_env();
  const mpr::FaultConfig defaults;
  EXPECT_EQ(config.max_retries, defaults.max_retries);
  EXPECT_DOUBLE_EQ(config.recv_timeout_vtime, defaults.recv_timeout_vtime);
}

}  // namespace
}  // namespace focus
