// GFA 1.0 export of assembly graphs — the de-facto interchange format for
// assembly graph viewers (Bandage) and downstream tools. Segments are the
// live contigs; links are the live directed overlap edges with their
// (estimated or verified) overlap length as a CIGAR match run.
#pragma once

#include <iosfwd>
#include <string>

#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "mpr/runtime.hpp"

namespace focus::dist {

struct GfaOptions {
  /// Emit per-node read counts as `RC` tags.
  bool read_count_tags = true;
  /// Skip contigs shorter than this (0 = keep all).
  std::size_t min_segment_length = 0;
};

/// Writes the live part of the assembly graph as GFA 1.0. Node ids become
/// segment names ("c<N>").
void write_gfa(std::ostream& out, const AsmGraph& graph,
               const GfaOptions& options = {});

/// Convenience: write to a file path; throws focus::Error on I/O failure.
void write_gfa_file(const std::string& path, const AsmGraph& graph,
                    const GfaOptions& options = {});

struct ParallelGfaResult {
  std::string gfa;
  mpr::RunStats run;
};

/// mpr-parallel GFA emission: fixed blocks of node ids (segment lines) and
/// edge ids (link lines) are rendered across ranks and reassembled in
/// ascending block order, so the result is byte-identical to write_gfa().
/// The emitted-segment predicate (live and long enough) is a pure function
/// of the graph, so link blocks render independently of segment blocks.
/// With a non-empty fault plan the two phases run under the shared
/// recovery protocol (mpr/ft_phase.hpp), the rotating-coordinator WAL.
ParallelGfaResult write_gfa_parallel(const AsmGraph& graph,
                                     const GfaOptions& options, int nranks,
                                     mpr::CostModel cost = {},
                                     const mpr::FaultPlan& fault_plan = {},
                                     const mpr::FaultConfig& fault = {});

}  // namespace focus::dist
