#include "dist/gfa.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "mpr/ft_phase.hpp"

namespace focus::dist {

void write_gfa(std::ostream& out, const AsmGraph& graph,
               const GfaOptions& options) {
  out << "H\tVN:Z:1.0\n";
  std::vector<bool> emitted(graph.node_count(), false);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!graph.node_live(v)) continue;
    const auto& node = graph.node(v);
    if (node.contig.size() < options.min_segment_length) continue;
    emitted[v] = true;
    out << "S\tc" << v << '\t' << node.contig;
    if (options.read_count_tags) {
      out << "\tRC:i:" << node.reads;
    }
    out << '\n';
  }
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    if (!graph.edge_live(e)) continue;
    const auto& edge = graph.edge(e);
    if (!emitted[edge.from] || !emitted[edge.to]) continue;
    // All sequences are stored forward (reverse complements are separate
    // nodes), so every link is +/+ with the overlap as a match run.
    out << "L\tc" << edge.from << "\t+\tc" << edge.to << "\t+\t"
        << edge.overlap << "M\n";
  }
}

void write_gfa_file(const std::string& path, const AsmGraph& graph,
                    const GfaOptions& options) {
  std::ofstream out(path);
  FOCUS_CHECK(out.good(), "cannot open GFA output file: " + path);
  write_gfa(out, graph, options);
  FOCUS_CHECK(out.good(), "error writing GFA file: " + path);
}

namespace {

/// Ids per parallel GFA emission block. Fixed so the block decomposition —
/// and therefore the canonical line order — is a pure function of the graph
/// shape, independent of rank count and faults.
constexpr std::size_t kGfaBlock = 256;

constexpr const char* kGfaHeader = "H\tVN:Z:1.0\n";

/// The emitted-segment predicate of write_gfa, as a pure function so link
/// blocks can evaluate it for both endpoints without the serial bitmap.
bool gfa_emits_segment(const AsmGraph& graph, const GfaOptions& options,
                       NodeId v) {
  return graph.node_live(v) &&
         graph.node(v).contig.size() >= options.min_segment_length;
}

/// Segment lines of node-id block p — identical bytes to write_gfa's S loop
/// over the same id range.
std::string gfa_segment_block(const AsmGraph& graph, const GfaOptions& options,
                              std::uint32_t p, double* work) {
  std::ostringstream out;
  const std::size_t begin = static_cast<std::size_t>(p) * kGfaBlock;
  const std::size_t end = std::min(graph.node_count(), begin + kGfaBlock);
  for (std::size_t i = begin; i < end; ++i) {
    const auto v = static_cast<NodeId>(i);
    *work += 1.0;
    if (!gfa_emits_segment(graph, options, v)) continue;
    const auto& node = graph.node(v);
    out << "S\tc" << v << '\t' << node.contig;
    if (options.read_count_tags) {
      out << "\tRC:i:" << node.reads;
    }
    out << '\n';
  }
  return out.str();
}

/// Link lines of edge-id block p — identical bytes to write_gfa's L loop
/// over the same id range.
std::string gfa_link_block(const AsmGraph& graph, const GfaOptions& options,
                           std::uint32_t p, double* work) {
  std::ostringstream out;
  const std::size_t begin = static_cast<std::size_t>(p) * kGfaBlock;
  const std::size_t end = std::min(graph.edge_count(), begin + kGfaBlock);
  for (std::size_t i = begin; i < end; ++i) {
    const auto e = static_cast<EdgeId>(i);
    *work += 1.0;
    if (!graph.edge_live(e)) continue;
    const auto& edge = graph.edge(e);
    if (!gfa_emits_segment(graph, options, edge.from) ||
        !gfa_emits_segment(graph, options, edge.to)) {
      continue;
    }
    out << "L\tc" << edge.from << "\t+\tc" << edge.to << "\t+\t"
        << edge.overlap << "M\n";
  }
  return out.str();
}

ParallelGfaResult write_gfa_parallel_ft(const AsmGraph& graph,
                                        const GfaOptions& options, int nranks,
                                        mpr::CostModel cost,
                                        const mpr::FaultPlan& fault_plan,
                                        const mpr::FaultConfig& fault) {
  const auto nblocks_s = static_cast<std::uint32_t>(
      (graph.node_count() + kGfaBlock - 1) / kGfaBlock);
  const auto nblocks_l = static_cast<std::uint32_t>(
      (graph.edge_count() + kGfaBlock - 1) / kGfaBlock);
  const auto render = [&](std::uint32_t phase, std::uint32_t p, double* work) {
    return phase == 0 ? gfa_segment_block(graph, options, p, work)
                      : gfa_link_block(graph, options, p, work);
  };

  ParallelGfaResult result;
  mpr::SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  result.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        mpr::ft_sym_drive(
            comm, wal, fault,
            [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                double* work) {
              FOCUS_CHECK(phase <= 1, "unknown GFA phase in scan command");
              frame.pack_string(render(phase, p, work));
            },
            [&](std::uint32_t phase_start) {
              for (std::uint32_t phase = phase_start; phase < 2; ++phase) {
                auto recs = mpr::sym_collect_phase<std::string>(
                    comm, wal, phase == 0 ? nblocks_s : nblocks_l, phase,
                    fault,
                    [&, phase](std::uint32_t p, double* work) {
                      return render(phase, p, work);
                    },
                    [](mpr::Message& m) { return m.unpack_string(); },
                    mpr::FtOrder::kAscending);
                std::string joined;
                for (const auto& block : recs) joined += block;
                mpr::SymWal::Entry entry;
                entry.payload.pack_string(joined);
                mpr::sym_wal_commit(comm, wal, std::move(entry));
              }
              // Publish from the durable record — identical whether this
              // rank rendered the blocks itself or inherited them.
              std::string segments, links;
              {
                std::lock_guard<std::mutex> lock(wal.mu);
                mpr::Message seg = wal.entries[0].payload;
                mpr::Message lnk = wal.entries[1].payload;
                segments = seg.unpack_string();
                links = lnk.unpack_string();
                FOCUS_CHECK(seg.fully_consumed() && lnk.fully_consumed(),
                            "trailing bytes in GFA log");
              }
              result.gfa = kGfaHeader + segments + links;
            });
      },
      cost, fault_plan);
  return result;
}

}  // namespace

ParallelGfaResult write_gfa_parallel(const AsmGraph& graph,
                                     const GfaOptions& options, int nranks,
                                     mpr::CostModel cost,
                                     const mpr::FaultPlan& fault_plan,
                                     const mpr::FaultConfig& fault) {
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  if (!fault_plan.empty()) {
    return write_gfa_parallel_ft(graph, options, nranks, cost, fault_plan,
                                 fault);
  }

  const auto nblocks_s = static_cast<std::uint32_t>(
      (graph.node_count() + kGfaBlock - 1) / kGfaBlock);
  const auto nblocks_l = static_cast<std::uint32_t>(
      (graph.edge_count() + kGfaBlock - 1) / kGfaBlock);
  const std::uint32_t nblocks = nblocks_s + nblocks_l;
  ParallelGfaResult result;
  result.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        // Round-robin blocks over ranks (segment blocks first, then link
        // blocks in one global id space), gathered and placed by block id.
        std::vector<std::pair<std::uint32_t, std::string>> mine;
        double work = 0.0;
        for (std::uint32_t b = 0; b < nblocks; ++b) {
          if (static_cast<int>(b % static_cast<std::uint32_t>(comm.size())) !=
              comm.rank()) {
            continue;
          }
          mine.emplace_back(
              b, b < nblocks_s
                     ? gfa_segment_block(graph, options, b, &work)
                     : gfa_link_block(graph, options, b - nblocks_s, &work));
        }
        comm.charge(work);
        mpr::Message msg;
        msg.pack(static_cast<std::uint32_t>(mine.size()));
        for (const auto& [b, lines] : mine) {
          msg.pack(b);
          msg.pack_string(lines);
        }
        auto gathered = comm.gather(std::move(msg), 0);
        if (comm.rank() == 0) {
          std::vector<std::optional<std::string>> by_block(nblocks);
          for (auto& m : gathered) {
            const auto count = m.unpack<std::uint32_t>();
            for (std::uint32_t i = 0; i < count; ++i) {
              const auto b = m.unpack<std::uint32_t>();
              FOCUS_CHECK(b < nblocks, "GFA frame names an invalid block");
              FOCUS_CHECK(!by_block[b].has_value(),
                          "GFA block duplicated in gather");
              by_block[b] = m.unpack_string();
            }
            FOCUS_CHECK(m.fully_consumed(), "trailing bytes in GFA frame");
          }
          result.gfa = kGfaHeader;
          for (std::uint32_t b = 0; b < nblocks; ++b) {
            FOCUS_CHECK(by_block[b].has_value(), "GFA block missing");
            result.gfa += *by_block[b];
          }
          comm.charge(static_cast<double>(nblocks));
        }
        comm.barrier();
      },
      cost);
  return result;
}

}  // namespace focus::dist
