// Shared fault-tolerant phase machinery (DESIGN.md §7 / §7b), extracted from
// the dist drivers so every pipeline stage — preprocess, overlap, partition,
// simplify, traverse, variants, GFA emission — recovers through one
// protocol: a rotating coordinator over a replicated write-ahead log.
//
// Coordination is a *role*: whichever live rank currently coordinates
// commands scans over replayable partitions, collects CRC-framed records,
// detects dead ranks by quiescence timeout, and commits each completed phase
// to a write-ahead log modeling replicated stable storage. A failed round
// keeps every record that did arrive; the next round re-scans only the
// missing partitions (orphans of dead ranks go round-robin over the live
// ranks), bounded by FaultConfig::max_retries. On the coordinator's death
// the lowest surviving rank takes over, fast-forwards through the log and
// resumes at the first uncommitted phase. No rank is irreplaceable.
//
// Every scan command carries a monotone sequence number (ranks discard
// duplicated commands without re-scanning) and every record frame carries
// its (phase, round) so stale frames from failed rounds are discarded.
// Scans are pure in (phase, partition), so a record kept from a failed
// round equals the one a re-scan would produce.
//
// gather_phase is the fault-free counterpart for an empty fault plan: the
// §V master gather, which hands rank 0 the records in the same rank-major
// order, so a driver that runs its phases through both applies the same
// change sequence under either.
//
// Two extensions over the original in-driver machinery:
//  * FtOrder — the canonical order collected records are returned in.
//    kRankMajor reproduces the fault-free gather order of the graph drivers
//    (partitions sorted by (p % size, p)); kAscending returns plain
//    partition order, which is what block-decomposed drivers (preprocess
//    read blocks, GFA line blocks, bisection regions) need to match their
//    serial output byte for byte.
//  * an optional per-partition state blob packed into scan commands
//    (pack_state / serving-side unpack hook), for drivers whose scan inputs
//    evolve across phases (the mlpart region lists): serving ranks stay
//    stateless and every scan is a pure function of the command payload, so
//    replays need no shared-state reconciliation.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "mpr/fault.hpp"
#include "mpr/message.hpp"
#include "mpr/runtime.hpp"

namespace focus::mpr {

// Wire tags of the recovery protocol; each driver runs in its own Runtime,
// so the tags are shared across stages without collision.
inline constexpr int kFtTagCmd = 120;
inline constexpr int kFtTagRec = 121;
inline constexpr std::uint32_t kFtCmdScan = 1;
inline constexpr std::uint32_t kFtCmdDone = 2;

/// Canonical order of collected per-partition records (see header comment).
enum class FtOrder { kRankMajor, kAscending };

/// Optional hook appending partition `p`'s scan state to a command frame.
using FtPackState = std::function<void(std::uint32_t p, Message&)>;
/// Serving-side mirror: consume partition `p`'s state from the command.
using FtUnpackState =
    std::function<void(std::uint32_t phase, std::uint32_t p, Message&)>;

/// Partition assignment for one collect round: only partitions whose slot is
/// still empty are assigned. Each goes to its original owner (id mod nranks)
/// when that rank is live; partitions orphaned by dead ranks are
/// redistributed round-robin over the live ranks (coordinator included), in
/// ascending rank order — a pure function of the slots and the live set, so
/// recoveries are deterministic. In round 0 every slot is empty and this is
/// the fault-free assignment. The coordinating rank is always in the live
/// set, so at least one rank is available.
template <typename Rec>
std::vector<std::vector<std::uint32_t>> ft_assign(
    const std::vector<std::optional<Rec>>& slots,
    const std::vector<std::uint8_t>& live, int size) {
  const auto nparts = static_cast<std::uint32_t>(slots.size());
  std::vector<std::vector<std::uint32_t>> parts_for_rank(
      static_cast<std::size_t>(size));
  std::vector<int> live_ranks;
  for (int r = 0; r < size; ++r) {
    if (live[static_cast<std::size_t>(r)]) live_ranks.push_back(r);
  }
  std::vector<std::uint32_t> orphans;
  for (std::uint32_t p = 0; p < nparts; ++p) {
    if (slots[p].has_value()) continue;
    const int owner = static_cast<int>(p % static_cast<std::uint32_t>(size));
    if (live[static_cast<std::size_t>(owner)]) {
      parts_for_rank[static_cast<std::size_t>(owner)].push_back(p);
    } else {
      orphans.push_back(p);
    }
  }
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    parts_for_rank[static_cast<std::size_t>(live_ranks[i % live_ranks.size()])]
        .push_back(orphans[i]);
  }
  return parts_for_rank;
}

/// Per-rank scan of one partition, appending its records to a frame.
using FtScanAndPack =
    std::function<void(std::uint32_t phase, std::uint32_t p, Message& frame,
                       double* work)>;

namespace detail {

/// Canonical emission of the per-partition record slots.
template <typename Rec>
std::vector<Rec> ft_emit(std::vector<std::optional<Rec>>& by_part, int size,
                         FtOrder order) {
  const auto nparts = static_cast<std::uint32_t>(by_part.size());
  std::vector<Rec> out;
  out.reserve(by_part.size());
  const auto take = [&](std::uint32_t p) {
    auto& slot = by_part[p];
    FOCUS_CHECK(slot.has_value(), "partition missing from phase records");
    out.push_back(std::move(*slot));
  };
  if (order == FtOrder::kAscending) {
    for (std::uint32_t p = 0; p < nparts; ++p) take(p);
  } else {
    for (int r = 0; r < size; ++r) {
      for (std::uint32_t p = static_cast<std::uint32_t>(r); p < nparts;
           p += static_cast<std::uint32_t>(size)) {
        take(p);
      }
    }
  }
  return out;
}

/// Serves one command received from `coord`: scans the named partitions and
/// replies with one record frame. Returns false on a done command. Commands
/// at or below `last_seq` are duplicates and are dropped without
/// re-scanning.
inline bool ft_serve(Comm& comm, Message& cmd, int coord,
                     std::uint64_t& last_seq,
                     const FtScanAndPack& scan_and_pack,
                     const FtUnpackState& unpack_state) {
  const auto kind = cmd.unpack<std::uint32_t>();
  if (kind == kFtCmdDone) {
    FOCUS_CHECK(cmd.fully_consumed(), "trailing bytes in done command");
    return false;
  }
  FOCUS_CHECK(kind == kFtCmdScan, "unknown command kind");
  const auto seq = cmd.unpack<std::uint64_t>();
  const auto phase = cmd.unpack<std::uint32_t>();
  const auto round = cmd.unpack<std::uint32_t>();
  const auto parts = cmd.unpack_vector<std::uint32_t>();
  if (unpack_state) {
    for (const std::uint32_t p : parts) unpack_state(phase, p, cmd);
  }
  FOCUS_CHECK(cmd.fully_consumed(), "trailing bytes in scan command");
  if (seq <= last_seq) return true;  // duplicated command; already executed
  last_seq = seq;

  Message frame;
  frame.pack(phase);
  frame.pack(round);
  frame.pack(static_cast<std::uint32_t>(parts.size()));
  double work = 0.0;
  for (const std::uint32_t p : parts) {
    frame.pack(p);
    scan_and_pack(phase, p, frame, &work);
  }
  comm.charge(work);
  comm.send(coord, kFtTagRec, std::move(frame));
  return true;
}

}  // namespace detail

/// Replicated write-ahead log shared by all ranks. The mutex stands in for
/// the replicated-storage commit protocol; `live` and `cmd_seq` ride along so
/// a successor inherits the failure detector's state and the command-sequence
/// high-water mark (serving ranks discard stale duplicates by sequence
/// number, so the counter must survive the coordinator).
struct SymWal {
  struct Entry {
    Message payload;                  // canonical records, applied order
    std::vector<std::size_t> counts;  // driver-defined per-phase counters
  };
  std::mutex mu;
  std::vector<std::uint8_t> live;
  std::uint64_t cmd_seq = 0;
  std::vector<Entry> entries;
};

/// Durably commit one completed phase and charge the writer for replicating
/// the entry to every other live rank.
inline void sym_wal_commit(Comm& comm, SymWal& wal, SymWal::Entry entry) {
  const std::size_t bytes = entry.payload.size_bytes();
  int nlive = 0;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    for (const auto l : wal.live) nlive += l;
    wal.entries.push_back(std::move(entry));
  }
  comm.advance_vtime(static_cast<double>(nlive - 1) *
                     comm.cost().message_cost(bytes));
}

/// One collected phase, run by whichever rank currently coordinates. Each
/// round commands scans of the still-missing partitions, scans its own share
/// locally, and drains one record frame from every commanded rank — a
/// timeout (rank marked dead in the log) or corrupt frame fails the round
/// but does not stop the drain, so every failure of a round is found in that
/// round. Records received in a failed round are kept; the next round
/// re-scans only the missing partitions, up to FaultConfig::max_retries
/// recovery rounds. Round 0 commands every live rank (the fault-free op
/// sequence); a recovery round commands only the ranks assigned missing
/// partitions. Returns the records in the canonical order selected by
/// `order`, so downstream applies see the exact record sequence of a
/// fault-free run regardless of which rank scanned each partition. Records a
/// dead coordinator had collected die with it: its successor restarts the
/// uncommitted phase from round 0.
template <typename Rec>
std::vector<Rec> sym_collect_phase(
    Comm& comm, SymWal& wal, std::uint32_t nparts, std::uint32_t phase,
    const FaultConfig& fault,
    const std::function<Rec(std::uint32_t, double*)>& scan_one,
    const std::function<Rec(Message&)>& unpack_one,
    FtOrder order = FtOrder::kRankMajor,
    const FtPackState& pack_state = nullptr) {
  const int size = comm.size();
  const int self = comm.rank();
  std::vector<std::optional<Rec>> by_part(static_cast<std::size_t>(nparts));
  for (std::uint32_t round = 0;; ++round) {
    FOCUS_CHECK(static_cast<int>(round) <= fault.max_retries,
                "fault recovery exhausted max_retries recovery rounds of a "
                "phase");
    std::vector<std::uint8_t> live;
    {
      std::lock_guard<std::mutex> lock(wal.mu);
      live = wal.live;
    }
    const auto assign = ft_assign(by_part, live, size);
    std::vector<int> commanded;
    for (int r = 0; r < size; ++r) {
      const auto& parts = assign[static_cast<std::size_t>(r)];
      if (r == self || !live[static_cast<std::size_t>(r)]) continue;
      if (round > 0 && parts.empty()) continue;
      Message cmd;
      cmd.pack(kFtCmdScan);
      {
        std::lock_guard<std::mutex> lock(wal.mu);
        cmd.pack(++wal.cmd_seq);
      }
      cmd.pack(phase);
      cmd.pack(round);
      cmd.pack_vector(parts);
      if (pack_state) {
        for (const std::uint32_t p : parts) pack_state(p, cmd);
      }
      comm.send(r, kFtTagCmd, std::move(cmd));
      commanded.push_back(r);
    }

    double work = 0.0;
    for (const std::uint32_t p : assign[static_cast<std::size_t>(self)]) {
      by_part[p] = scan_one(p, &work);
    }
    comm.charge(work);

    bool failed = false;
    for (const int r : commanded) {
      for (;;) {
        auto res = comm.try_recv(r, kFtTagRec, fault.recv_timeout_vtime);
        if (res.status == RecvStatus::kTimeout) {
          std::lock_guard<std::mutex> lock(wal.mu);
          wal.live[static_cast<std::size_t>(r)] = 0;
          failed = true;
          break;
        }
        if (res.status == RecvStatus::kCorrupt) {
          failed = true;  // frame lost in transit; the rank itself is fine
          break;
        }
        const auto fphase = res.msg.unpack<std::uint32_t>();
        const auto fround = res.msg.unpack<std::uint32_t>();
        const auto count = res.msg.unpack<std::uint32_t>();
        if (fphase != phase || fround != round) continue;  // stale frame
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto p = res.msg.unpack<std::uint32_t>();
          FOCUS_CHECK(p < nparts, "record frame names an invalid partition");
          by_part[p] = unpack_one(res.msg);
        }
        FOCUS_CHECK(res.msg.fully_consumed(),
                    "trailing bytes in record frame");
        break;
      }
    }
    if (!failed) return detail::ft_emit(by_part, size, order);
    comm.note_retry();
    comm.charge_recovery(fault.recv_timeout_vtime *
                         static_cast<double>(round + 1));
  }
}

/// Fault-free collect, the §V master gather. Rank r scans the partitions
/// ft_assign gives it in round 0 (p % size == r, ascending), appends their
/// records into one record, packs it once and gathers it to rank 0. Rank 0
/// unpacks one record per rank and appends them in rank order — the
/// concatenation of what sym_collect_phase returns under kRankMajor — and
/// hands the merged record to `apply`. A barrier then closes the phase, so
/// the next phase scans the applied state.
template <typename Rec>
void gather_phase(Comm& comm, std::uint32_t nparts,
                  const std::function<Rec(std::uint32_t, double*)>& scan_one,
                  const std::function<Rec(Message&)>& unpack_one,
                  const std::function<void(Message&, const Rec&)>& pack,
                  const std::function<void(Rec&, Rec)>& append,
                  const std::function<void(Rec)>& apply) {
  Rec mine;
  double work = 0.0;
  for (auto p = static_cast<std::uint32_t>(comm.rank()); p < nparts;
       p += static_cast<std::uint32_t>(comm.size())) {
    append(mine, scan_one(p, &work));
  }
  comm.charge(work);
  Message msg;
  pack(msg, mine);
  auto gathered = comm.gather(std::move(msg), 0);
  if (comm.rank() == 0) {
    Rec all;
    for (auto& m : gathered) {
      append(all, unpack_one(m));
      FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
    }
    apply(std::move(all));
  }
  comm.barrier();
}

/// Drive loop of the recovery protocol. Every rank serves scan commands from
/// whichever rank it currently believes coordinates; on proof of that rank's
/// death it rotates to the lowest rank it has not proven dead (death is only
/// ever proven by a receive from a terminated rank throwing). Rank order is
/// the succession order, so at most one live rank can believe itself
/// coordinator: a rank self-appoints only after proving every lower rank
/// terminated, and every higher live rank then blocks on the true
/// coordinator or on a terminated rank it is about to prove dead — never on
/// a live non-coordinator. `scan_and_pack(phase, partition, frame, work)`
/// runs one partition's read-only scan and appends its records to the
/// frame; when the coordinator packs per-partition state into commands,
/// `unpack_state` consumes it (in assignment order, before any scan runs).
inline void ft_sym_drive(Comm& comm, SymWal& wal, const FaultConfig& fault,
                         const FtScanAndPack& scan_and_pack,
                         const std::function<void(std::uint32_t)>& coordinate,
                         const FtUnpackState& unpack_state = nullptr) {
  const int size = comm.size();
  const int self = comm.rank();
  int coord = 0;
  std::vector<std::uint8_t> proven_dead(static_cast<std::size_t>(size), 0);
  std::uint64_t last_seq = 0;
  while (coord != self) {
    Message cmd;
    try {
      cmd = comm.recv(coord, kFtTagCmd);
    } catch (const CorruptMessage& e) {
      // A command this rank cannot decode means it cannot follow the
      // protocol any more: fail the rank and let the coordinator reassign.
      throw RankFailed(e.what());
    } catch (const RankCrashed&) {
      throw;  // this rank's own injected crash, not a peer's death
    } catch (const RankFailed&) {
      proven_dead[static_cast<std::size_t>(coord)] = 1;
      int next = self;
      for (int r = 0; r < size; ++r) {
        if (r == self || !proven_dead[static_cast<std::size_t>(r)]) {
          next = r;
          break;
        }
      }
      coord = next;
      continue;
    }
    if (!detail::ft_serve(comm, cmd, coord, last_seq, scan_and_pack,
                          unpack_state)) {
      return;
    }
  }

  // Coordinator (rank 0 initially, or a successor after rotation): join the
  // log's live set — a successor may have been declared dead by a timeout it
  // survived — absorb this rank's own death proofs, and resume after the
  // last committed phase.
  std::uint32_t phase_start = 0;
  std::size_t wal_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    for (int r = 0; r < size; ++r) {
      if (proven_dead[static_cast<std::size_t>(r)]) {
        wal.live[static_cast<std::size_t>(r)] = 0;
      }
    }
    wal.live[static_cast<std::size_t>(self)] = 1;
    phase_start = static_cast<std::uint32_t>(wal.entries.size());
    for (const auto& e : wal.entries) wal_bytes += e.payload.size_bytes();
  }
  if (self != 0) {
    // A successor fetches the committed log from replicated storage and
    // fast-forwards through it before commanding anything.
    comm.charge_recovery(fault.recv_timeout_vtime +
                         comm.cost().message_cost(wal_bytes));
  }
  coordinate(phase_start);

  // Release every rank still in the log's live set (sends to ranks that
  // already terminated are harmless).
  std::vector<std::uint8_t> live;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    live = wal.live;
  }
  for (int r = 0; r < size; ++r) {
    if (r == self || !live[static_cast<std::size_t>(r)]) continue;
    Message done;
    done.pack(kFtCmdDone);
    comm.send(r, kFtTagCmd, std::move(done));
  }
}

}  // namespace focus::mpr
