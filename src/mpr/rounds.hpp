// Batched all-to-all communication rounds.
//
// The distributed-index overlapper (DESIGN.md §6c) exchanges large batches of
// small records — k-mer postings, seed probes, candidate hits — between every
// pair of ranks. alltoall_round() is the single collective shape all of its
// phases use: every rank contributes one message per destination and receives
// one message per source, with a deterministic delivery order (ascending
// source rank) so downstream processing is a pure function of the inputs.
// The overlapper is its only caller.
//
// Framing: callers pack homogeneous trivially-copyable record vectors with
// Message::pack_vector. The round itself adds no framing bytes — each
// (round, src, dst) slot is exactly one Message — so the CRC32 frame checksum
// of the runtime covers the records directly.
#pragma once

#include <vector>

#include "mpr/message.hpp"
#include "mpr/runtime.hpp"

namespace focus::mpr {

/// One batched exchange round: rank r's `outgoing[d]` is delivered to rank d;
/// the returned vector holds one message per source rank (index = source).
/// The self slot is moved across without touching the network, mirroring an
/// MPI_Alltoall local copy. All sends are posted eagerly before any receive,
/// so the round cannot deadlock; receives drain in ascending source-rank
/// order, which fixes the merge order for every caller. Every live rank must
/// call this with the same `tag`, exactly once per round.
std::vector<Message> alltoall_round(Comm& comm, std::vector<Message> outgoing,
                                    int tag);

}  // namespace focus::mpr
