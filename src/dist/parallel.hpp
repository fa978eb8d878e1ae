// mpr-parallel drivers for the distributed graph algorithms (paper §V, §VI-D).
//
// The hybrid graph is partitioned and every collected phase runs under one
// of two drivers (mpr/ft_phase.hpp). With an empty FaultPlan it is the
// paper's master protocol (gather_phase): rank r scans the partitions
// p % ranks == r, workers ship their records to rank 0, which applies them
// between barrier-separated phases. With any other plan it is the recovery
// protocol (DESIGN.md §7 / §7b): a rotating coordinator over a replicated
// write-ahead log sends each live rank a scan command naming its partitions,
// collects one record frame per rank with a timed receive, and re-scans the
// partitions of dead ranks on the survivors (bounded by
// FaultConfig::max_retries); if the coordinator itself dies, the lowest
// surviving rank resumes from the log. Both drivers merge the records in the
// same rank-major partition order, so a recovered run applies the exact
// change sequence of a fault-free run. Each simplify phase — its partition
// scan, record codec and apply — is written once and run by both.
#pragma once

#include <span>

#include "align/overlapper.hpp"
#include "dist/simplify.hpp"
#include "dist/traverse.hpp"
#include "mpr/runtime.hpp"

namespace focus::dist {

/// perfbench-pinned: read by perfbench only; no driver consults it.
enum class DistProtocol {
  kMaster,
  kSymmetric,
};

/// perfbench-pinned: carried by FocusConfig::dist and the drivers' unused
/// `dist` parameters.
struct DistConfig {
  DistProtocol protocol = DistProtocol::kMaster;
};

/// Nodes of each partition, in ascending node-id order. This is the host-side
/// gather both drivers below run before entering the mpr runtime. `threads`
/// follows the PartitionerConfig::threads convention (0 = auto via
/// FOCUS_THREADS; 1 = serial): with more than one thread, chunks of the part
/// vector are scattered in parallel into per-chunk lists that are merged in
/// chunk order, so the result is identical at every width.
std::vector<std::vector<NodeId>> partition_node_lists(
    std::span<const PartId> part, PartId nparts, unsigned threads = 1);

struct ParallelSimplifyResult {
  SimplifyStats stats;
  mpr::RunStats run;
};

/// Distributed graph trimming: transitive reduction, containment removal and
/// edge verification, dead-end trimming, bubble popping — each as a
/// worker-record / master-apply phase separated by barriers. `threads`
/// parallelizes the host-side partition gather only (see
/// partition_node_lists); the per-rank bodies stay single-threaded so the
/// virtual-time measurement is not confounded by host parallelism.
/// A non-empty `fault_plan` selects the recovery driver (see file comment);
/// `fault` bounds its retries and sets the receive deadline.
///
/// GraphT is dist::AsmGraph or dist::StoredAsmGraph (explicit instantiations
/// in parallel.cpp) — both drivers iterate partitions through either
/// backend and produce byte-identical results (tests/graph_store_test.cpp).
/// The last parameter is perfbench-pinned and unused.
template <class GraphT>
ParallelSimplifyResult simplify_parallel(GraphT& g,
                                         std::span<const PartId> part,
                                         PartId nparts,
                                         const SimplifyConfig& config,
                                         int nranks, mpr::CostModel cost = {},
                                         unsigned threads = 1,
                                         const mpr::FaultPlan& fault_plan = {},
                                         const mpr::FaultConfig& fault = {},
                                         const DistConfig& = {});

struct ParallelTraverseResult {
  std::vector<std::vector<NodeId>> paths;
  mpr::RunStats run;
};

/// Distributed maximal-path traversal: ranks grow partition-local
/// sub-paths; one rank joins them across partition boundaries — the master
/// on an empty plan, the rotating coordinator on any other. `threads`,
/// `fault_plan`, `fault` and GraphT as in simplify_parallel; the last
/// parameter is perfbench-pinned and unused.
template <class GraphT>
ParallelTraverseResult traverse_parallel(const GraphT& g,
                                         std::span<const PartId> part,
                                         PartId nparts, int nranks,
                                         mpr::CostModel cost = {},
                                         unsigned threads = 1,
                                         const mpr::FaultPlan& fault_plan = {},
                                         const mpr::FaultConfig& fault = {},
                                         const DistConfig& = {});

struct ParallelOverlapResult {
  std::vector<align::Overlap> overlaps;
  mpr::RunStats run;
};

/// Distributed-index overlap discovery with the drivers' fault envelope.
/// With an empty plan this is align::find_overlaps_sharded verbatim (the
/// symmetric three-round protocol). With a plan, a recovery protocol runs
/// instead: every rank holds the full replicated k-mer index, query blocks
/// of kFtQueryBlock reads are the replayable partitions, and a block is
/// re-executed on whichever rank survives — blocks are pure functions of
/// (reads, config), so a recovered run reproduces the exact fault-free
/// overlap set (tests/mpr_fault_test.cpp). Recovery runs the rotating
/// coordinator over a replicated log, which survives any rank's death,
/// including rank 0. The last parameter is perfbench-pinned and unused.
ParallelOverlapResult overlap_parallel(const io::ReadSet& reads,
                                       const align::OverlapperConfig& config,
                                       int nranks, mpr::CostModel cost = {},
                                       const mpr::FaultPlan& fault_plan = {},
                                       const mpr::FaultConfig& fault = {},
                                       const DistConfig& = {});

}  // namespace focus::dist
