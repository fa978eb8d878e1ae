#include "dist/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <type_traits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dist/stored_graph.hpp"
#include "io/preprocess.hpp"
#include "mpr/ft_phase.hpp"

namespace focus::dist {

namespace {

/// Below this the chunked gather costs more than the serial scan.
constexpr std::size_t kParallelGatherMinNodes = 4096;
constexpr std::size_t kGatherGrain = 4096;

}  // namespace

std::vector<std::vector<NodeId>> partition_node_lists(
    std::span<const PartId> part, PartId nparts, unsigned threads) {
  std::vector<std::vector<NodeId>> nodes(static_cast<std::size_t>(nparts));
  const std::size_t n = part.size();
  const auto gather = [&](std::size_t begin, std::size_t end,
                          std::vector<std::vector<NodeId>>& out) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      FOCUS_CHECK(part[v] >= 0 && part[v] < nparts,
                  "node with invalid partition id");
      out[static_cast<std::size_t>(part[v])].push_back(v);
    }
  };
  const unsigned resolved = resolve_thread_count(threads);
  if (resolved <= 1 || n < kParallelGatherMinNodes) {
    gather(0, n, nodes);
    return nodes;
  }
  ThreadPool pool(resolved);
  // parallel_reduce merges the per-chunk buckets in chunk order, so each
  // per-part list stays in ascending node order and the result equals the
  // serial scan at every width.
  using Buckets = std::vector<std::vector<NodeId>>;
  nodes = pool.parallel_reduce(
      n, kGatherGrain, std::move(nodes),
      [&](std::size_t b, std::size_t e) {
        Buckets local(static_cast<std::size_t>(nparts));
        gather(b, e, local);
        return local;
      },
      [](Buckets acc, Buckets chunk) {
        for (std::size_t p = 0; p < acc.size(); ++p) {
          acc[p].insert(acc[p].end(), chunk[p].begin(), chunk[p].end());
        }
        return acc;
      });
  return nodes;
}

// ---------------------------------------------------------------------------
// Drivers (DESIGN.md §7 / §7b). Each collected phase runs under one of two
// drivers from mpr/ft_phase.hpp: an empty fault plan runs the §V master
// gather (gather_phase), any other plan the rotating coordinator over a
// replicated write-ahead log (ft_sym_drive, sym_collect_phase). Both merge
// the records in the same rank-major order, so both apply the same change
// sequence. The graph drivers here supply each phase's scan, record codec
// and apply, once.
// ---------------------------------------------------------------------------

namespace {

using mpr::SymWal;
using Subpaths = std::vector<std::vector<NodeId>>;

/// Record codec: the one wire layout of each record type, shared by the
/// fault-free gather, the serving ranks' frames, the coordinator's collect
/// and the log payload. The primary template covers vectors of
/// trivially-copyable records.
template <class Rec>
struct Codec {
  static void pack(mpr::Message& m, const Rec& r) { m.pack_vector(r); }
  static Rec unpack(mpr::Message& m) {
    return m.unpack_vector<typename Rec::value_type>();
  }
  static void append(Rec& all, Rec r) {
    all.insert(all.end(), r.begin(), r.end());
  }
};

template <>
struct Codec<ContainmentFindings> {
  static void pack(mpr::Message& m, const ContainmentFindings& r) {
    m.pack_vector(r.verified);
    m.pack_vector(r.false_edges);
    m.pack_vector(r.contained_nodes);
  }
  static ContainmentFindings unpack(mpr::Message& m) {
    ContainmentFindings f;
    f.verified = m.unpack_vector<EdgeVerification>();
    f.false_edges = m.unpack_vector<EdgeId>();
    f.contained_nodes = m.unpack_vector<NodeId>();
    return f;
  }
  static void append(ContainmentFindings& all, ContainmentFindings r) {
    Codec<std::vector<EdgeVerification>>::append(all.verified,
                                                 std::move(r.verified));
    Codec<std::vector<EdgeId>>::append(all.false_edges,
                                       std::move(r.false_edges));
    Codec<std::vector<NodeId>>::append(all.contained_nodes,
                                       std::move(r.contained_nodes));
  }
};

template <>
struct Codec<Subpaths> {
  static void pack(mpr::Message& m, const Subpaths& s) {
    m.pack(static_cast<std::uint32_t>(s.size()));
    for (const auto& path : s) m.pack_vector(path);
  }
  static Subpaths unpack(mpr::Message& m) {
    Subpaths s;
    for (auto n = m.unpack<std::uint32_t>(); n > 0; --n) {
      s.push_back(m.unpack_vector<NodeId>());
    }
    return s;
  }
  static void append(Subpaths& all, Subpaths r) {
    for (auto& path : r) all.push_back(std::move(path));
  }
};

/// Fault-free phase: gather_phase over a codec-described record.
template <class Rec>
void gather_records(mpr::Comm& comm, PartId nparts,
                    const std::function<Rec(std::uint32_t, double*)>& scan,
                    const std::function<void(Rec)>& apply) {
  mpr::gather_phase<Rec>(comm, static_cast<std::uint32_t>(nparts), scan,
                         &Codec<Rec>::unpack, &Codec<Rec>::pack,
                         &Codec<Rec>::append, apply);
}

/// Recovery-driver phase: the coordinator's collect, merged into one record.
template <class Rec>
Rec collect_records(mpr::Comm& comm, SymWal& wal, PartId nparts,
                    std::uint32_t phase, const mpr::FaultConfig& fault,
                    const std::function<Rec(std::uint32_t, double*)>& scan) {
  Rec all;
  for (auto& r : mpr::sym_collect_phase<Rec>(
           comm, wal, static_cast<std::uint32_t>(nparts), phase, fault, scan,
           &Codec<Rec>::unpack)) {
    Codec<Rec>::append(all, std::move(r));
  }
  return all;
}

/// The committed payload of the log's first entry.
mpr::Message first_entry_payload(SymWal& wal) {
  std::lock_guard<std::mutex> lock(wal.mu);
  return wal.entries.front().payload;
}

/// One simplify phase: `scan(p, work)` records partition p's changes without
/// touching the graph; `apply(comm, all, stats)` charges one unit per merged
/// record, applies them and sets the phase's SimplifyStats fields.
template <class Scan, class Apply>
struct Phase {
  using Rec = std::invoke_result_t<Scan&, std::uint32_t, double*>;
  Scan scan;
  Apply apply;
};

constexpr std::uint32_t kSimplifyPhases = 4;

/// The simplify phases (§V-A–C), each described once. visit(i, f) calls f
/// with phase i; the fault-free gather, the recovery coordinator and the
/// serving ranks all reach the phases through it. One instance per rank:
/// the transitive scan keeps its marks in the instance's scratch.
template <class GraphT>
class SimplifyPhases {
 public:
  SimplifyPhases(GraphT& g, const std::vector<std::vector<NodeId>>& nodes,
                 const SimplifyConfig& config)
      : g_(g), nodes_(nodes), config_(config) {}

  template <class F>
  void visit(std::uint32_t phase, F&& f) {
    switch (phase) {
      case 0:  // Transitive reduction (§V-A).
        f(Phase{[this](std::uint32_t p, double* work) {
                  return find_transitive_edges(g_, nodes_[p], scratch_, work);
                },
                [this](mpr::Comm& comm, std::vector<EdgeId> all,
                       SimplifyStats& s) {
                  comm.charge(static_cast<double>(all.size()));
                  s.transitive_edges = apply_edge_removals(g_, std::move(all));
                }});
        return;
      case 1:  // Containment removal and edge verification (§V-B).
        f(Phase{[this](std::uint32_t p, double* work) {
                  return find_containments(g_, nodes_[p], config_, work);
                },
                [this](mpr::Comm& comm, ContainmentFindings all,
                       SimplifyStats& s) {
                  comm.charge(static_cast<double>(all.verified.size() +
                                                  all.false_edges.size() +
                                                  all.contained_nodes.size()));
                  s.verified_edges = apply_verifications(g_, all.verified);
                  s.false_edges =
                      apply_edge_removals(g_, std::move(all.false_edges));
                  s.contained_nodes =
                      apply_node_removals(g_, std::move(all.contained_nodes));
                }});
        return;
      case 2:  // Dead-end trimming (§V-C).
        f(Phase{[this](std::uint32_t p, double* work) {
                  return find_tips(g_, nodes_[p], config_, work);
                },
                [this](mpr::Comm& comm, std::vector<NodeId> all,
                       SimplifyStats& s) {
                  comm.charge(static_cast<double>(all.size()));
                  s.tip_nodes = apply_node_removals(g_, std::move(all));
                }});
        return;
      case 3:  // Bubble popping (§V-C).
        f(Phase{[this](std::uint32_t p, double* work) {
                  return find_bubbles(g_, nodes_[p], config_, work);
                },
                [this](mpr::Comm& comm, std::vector<NodeId> all,
                       SimplifyStats& s) {
                  comm.charge(static_cast<double>(all.size()));
                  s.bubble_nodes = apply_node_removals(g_, std::move(all));
                }});
        return;
      default:
        FOCUS_THROW("unknown simplify phase");
    }
  }

 private:
  GraphT& g_;
  const std::vector<std::vector<NodeId>>& nodes_;
  const SimplifyConfig& config_;
  TransitiveScratch scratch_;
};

/// Coordinator body of the recovery simplify: each phase ends with a durable
/// log commit, and the loop starts wherever the inherited log ends. The
/// final counters are a pure function of the log, so any coordinator —
/// original, successor, or a late orphan finding a complete log — reports
/// the same stats.
template <class GraphT>
void sym_simplify_coordinate(mpr::Comm& comm, SymWal& wal,
                             SimplifyPhases<GraphT>& phases, PartId nparts,
                             const mpr::FaultConfig& fault,
                             std::uint32_t phase_start, SimplifyStats* stats) {
  for (std::uint32_t i = phase_start; i < kSimplifyPhases; ++i) {
    phases.visit(i, [&](auto ph) {
      using Rec = typename decltype(ph)::Rec;
      Rec all = collect_records<Rec>(comm, wal, nparts, i, fault, ph.scan);
      SymWal::Entry entry;
      Codec<Rec>::pack(entry.payload, all);
      SimplifyStats delta;
      ph.apply(comm, std::move(all), delta);
      entry.counts = {delta.transitive_edges, delta.false_edges,
                      delta.contained_nodes,  delta.verified_edges,
                      delta.tip_nodes,        delta.bubble_nodes};
      mpr::sym_wal_commit(comm, wal, std::move(entry));
    });
  }

  SimplifyStats total;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    for (const auto& e : wal.entries) {
      total.transitive_edges += e.counts[0];
      total.false_edges += e.counts[1];
      total.contained_nodes += e.counts[2];
      total.verified_edges += e.counts[3];
      total.tip_nodes += e.counts[4];
      total.bubble_nodes += e.counts[5];
    }
  }
  *stats = total;
}

}  // namespace

template <class GraphT>
ParallelSimplifyResult simplify_parallel(GraphT& g,
                                         std::span<const PartId> part,
                                         PartId nparts,
                                         const SimplifyConfig& config,
                                         int nranks, mpr::CostModel cost,
                                         unsigned threads,
                                         const mpr::FaultPlan& fault_plan,
                                         const mpr::FaultConfig& fault,
                                         // perfbench-pinned; unused.
                                         const DistConfig& /*dist*/) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  const auto nodes = partition_node_lists(part, nparts, threads);

  ParallelSimplifyResult out;
  if (fault_plan.empty()) {
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          SimplifyPhases<GraphT> phases(g, nodes, config);
          for (std::uint32_t i = 0; i < kSimplifyPhases; ++i) {
            phases.visit(i, [&](auto ph) {
              using Rec = typename decltype(ph)::Rec;
              gather_records<Rec>(comm, nparts, ph.scan, [&](Rec all) {
                ph.apply(comm, std::move(all), out.stats);
              });
            });
          }
        },
        cost);
    return out;
  }

  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        SimplifyPhases<GraphT> phases(g, nodes, config);
        mpr::ft_sym_drive(
            comm, wal, fault,
            [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                double* work) {
              phases.visit(phase, [&](auto ph) {
                Codec<typename decltype(ph)::Rec>::pack(frame,
                                                        ph.scan(p, work));
              });
            },
            [&](std::uint32_t phase_start) {
              sym_simplify_coordinate(comm, wal, phases, nparts, fault,
                                      phase_start, &out.stats);
            });
      },
      cost, fault_plan);
  return out;
}

namespace {

/// Partition p's sub-paths. `visited` is cleared again afterwards, so the
/// scan is a pure function of the graph and the partition and a replay
/// yields the same record.
template <class GraphT>
Subpaths scan_subpaths(const GraphT& g, std::span<const NodeId> scan,
                       std::span<const PartId> part,
                       std::vector<bool>& visited, double* work) {
  auto found = extract_subpaths(g, scan, part, visited, work);
  clear_visited(found, visited);
  return found;
}

/// Joins the collected sub-paths across partition boundaries.
template <class GraphT>
void join_records(mpr::Comm& comm, const GraphT& g, Subpaths all,
                  Subpaths* paths) {
  double join_work = 0.0;
  *paths = join_subpaths(g, std::move(all), &join_work);
  comm.charge(join_work);
}

}  // namespace

template <class GraphT>
ParallelTraverseResult traverse_parallel(const GraphT& g,
                                         std::span<const PartId> part,
                                         PartId nparts, int nranks,
                                         mpr::CostModel cost,
                                         unsigned threads,
                                         const mpr::FaultPlan& fault_plan,
                                         const mpr::FaultConfig& fault,
                                         // perfbench-pinned; unused.
                                         const DistConfig& /*dist*/) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  const auto nodes = partition_node_lists(part, nparts, threads);

  ParallelTraverseResult out;
  if (fault_plan.empty()) {
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          std::vector<bool> visited(g.node_count(), false);
          gather_records<Subpaths>(
              comm, nparts,
              [&](std::uint32_t p, double* work) {
                return scan_subpaths(g, nodes[p], part, visited, work);
              },
              [&](Subpaths all) {
                join_records(comm, g, std::move(all), &out.paths);
              });
        },
        cost);
    return out;
  }

  // The coordinator commits the collected sub-paths, then joins from the
  // durable record — identical whether this rank collected them itself or
  // inherited them from a crashed predecessor.
  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        std::vector<bool> visited(g.node_count(), false);
        const auto scan = [&](std::uint32_t p, double* work) {
          return scan_subpaths(g, nodes[p], part, visited, work);
        };
        mpr::ft_sym_drive(
            comm, wal, fault,
            [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                double* work) {
              FOCUS_CHECK(phase == 0, "unknown traverse phase in scan command");
              Codec<Subpaths>::pack(frame, scan(p, work));
            },
            [&](std::uint32_t phase_start) {
              if (phase_start == 0) {
                SymWal::Entry entry;
                Codec<Subpaths>::pack(
                    entry.payload,
                    collect_records<Subpaths>(comm, wal, nparts, 0, fault,
                                              scan));
                mpr::sym_wal_commit(comm, wal, std::move(entry));
              }
              auto payload = first_entry_payload(wal);
              auto all = Codec<Subpaths>::unpack(payload);
              FOCUS_CHECK(payload.fully_consumed(),
                          "trailing bytes in sub-path log");
              join_records(comm, g, std::move(all), &out.paths);
            });
      },
      cost, fault_plan);
  return out;
}

namespace {

/// Query reads per fault-tolerant overlap partition. Fixed so the block
/// decomposition — and therefore the canonical record order — is a pure
/// function of the read count, independent of rank count and faults.
constexpr std::size_t kFtQueryBlock = 64;

std::vector<align::Overlap> ft_overlap_scan_block(
    const io::ReadSet& reads, const align::KmerShard& shard,
    const align::SubsetRanges& subsets, const align::OverlapperConfig& config,
    std::uint32_t p, double* work) {
  std::vector<align::Overlap> out;
  const std::size_t n = reads.size();
  const std::size_t begin = p * kFtQueryBlock;
  const std::size_t end = std::min(n, begin + kFtQueryBlock);
  align::distributed_block_overlaps(reads, shard, subsets,
                                    static_cast<ReadId>(begin),
                                    static_cast<ReadId>(end), config, out,
                                    work);
  return out;
}

void ft_overlap_symmetric(mpr::Comm& comm, const io::ReadSet& reads,
                          const align::KmerShard& shard,
                          const align::SubsetRanges& subsets,
                          const align::OverlapperConfig& config, PartId nparts,
                          const mpr::FaultConfig& fault, SymWal& wal,
                          std::vector<align::Overlap>* overlaps) {
  using Rec = std::vector<align::Overlap>;
  const auto scan = [&](std::uint32_t p, double* work) {
    return ft_overlap_scan_block(reads, shard, subsets, config, p, work);
  };
  mpr::ft_sym_drive(
      comm, wal, fault,
      [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
          double* work) {
        FOCUS_CHECK(phase == 0, "unknown overlap phase in scan command");
        Codec<Rec>::pack(frame, scan(p, work));
      },
      [&](std::uint32_t phase_start) {
        if (phase_start == 0) {
          auto all = collect_records<Rec>(comm, wal, nparts, 0, fault, scan);
          comm.charge(static_cast<double>(all.size()) *
                      std::log2(static_cast<double>(all.size()) + 2.0));
          SymWal::Entry entry;
          Codec<Rec>::pack(entry.payload,
                           align::dedupe_overlaps(std::move(all)));
          mpr::sym_wal_commit(comm, wal, std::move(entry));
        }
        // Publish from the durable record — identical whether this rank
        // merged the blocks itself or inherited the committed entry.
        auto payload = first_entry_payload(wal);
        *overlaps = Codec<Rec>::unpack(payload);
        FOCUS_CHECK(payload.fully_consumed(), "trailing bytes in overlap log");
      });
}

}  // namespace

// Explicit instantiations of the templated drivers for the two graph
// backends (see parallel.hpp).
#define FOCUS_INSTANTIATE_PARALLEL(G)                                        \
  template ParallelSimplifyResult simplify_parallel<G>(                      \
      G&, std::span<const PartId>, PartId, const SimplifyConfig&, int,       \
      mpr::CostModel, unsigned, const mpr::FaultPlan&,                       \
      const mpr::FaultConfig&, const DistConfig&);                           \
  template ParallelTraverseResult traverse_parallel<G>(                      \
      const G&, std::span<const PartId>, PartId, int, mpr::CostModel,        \
      unsigned, const mpr::FaultPlan&, const mpr::FaultConfig&,              \
      const DistConfig&);

FOCUS_INSTANTIATE_PARALLEL(AsmGraph)
FOCUS_INSTANTIATE_PARALLEL(StoredAsmGraph)

#undef FOCUS_INSTANTIATE_PARALLEL

ParallelOverlapResult overlap_parallel(const io::ReadSet& reads,
                                       const align::OverlapperConfig& config,
                                       int nranks, mpr::CostModel cost,
                                       const mpr::FaultPlan& fault_plan,
                                       const mpr::FaultConfig& fault,
                                       // perfbench-pinned; unused.
                                       const DistConfig& /*dist*/) {
  if (fault_plan.empty()) {
    auto r = align::find_overlaps_sharded(reads, config, nranks, cost);
    return {std::move(r.overlaps), r.stats};
  }

  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  FOCUS_CHECK(config.subsets > 0, "subset count must be positive");
  FOCUS_CHECK(config.k >= 8 && config.k <= 32, "seed k must be in [8, 32]");
  const std::size_t n = reads.size();
  const auto nparts =
      static_cast<PartId>((n + kFtQueryBlock - 1) / kFtQueryBlock);

  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  ParallelOverlapResult out;
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        // Replicated single-shard layout: under faults any surviving rank
        // may be asked to replay any query block, so every rank holds the
        // full index — trading memory for the ability to reassign blocks
        // without a shard-recovery round.
        double build_work = 0.0;
        auto postings = align::extract_shard_postings(
            reads, 0, static_cast<ReadId>(n), config.k, 1, &build_work);
        const align::KmerShard shard(std::move(postings[0]), config.k);
        build_work += shard.build_work();
        comm.charge(build_work);
        const align::SubsetRanges subsets(
            io::split_into_subsets(n, config.subsets));

        ft_overlap_symmetric(comm, reads, shard, subsets, config, nparts,
                             fault, wal, &out.overlaps);
      },
      cost, fault_plan);
  return out;
}

}  // namespace focus::dist
