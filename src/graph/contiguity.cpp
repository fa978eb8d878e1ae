#include "graph/contiguity.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace focus::graph {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}  // namespace

ContiguityTester::ContiguityTester(const Digraph& reads,
                                   std::vector<std::uint32_t> read_lengths)
    : reads_(&reads), read_lengths_(std::move(read_lengths)) {
  FOCUS_CHECK(read_lengths_.size() == reads.node_count(),
              "read length table size mismatch");
}

bool ContiguityTester::contiguous(std::span<const NodeId> cluster,
                                  ContiguityScratch& s,
                                  std::vector<LayoutStep>* layout) const {
  if (cluster.empty()) return false;

  if (s.member_.size() < reads_->node_count()) {
    s.member_.resize(reads_->node_count(), 0);
    s.local_.resize(reads_->node_count(), 0);
  }

  // Active members: cluster reads that are not contained in another read.
  // Contained reads are excluded from the path; edges through them carry no
  // extra layout information.
  const std::uint64_t mark = ++s.stamp_;
  auto& active = s.active_;
  active.clear();
  for (const NodeId v : cluster) {
    if (reads_->is_contained(v)) continue;
    s.member_[v] = mark;
    s.local_[v] = static_cast<std::uint32_t>(active.size());
    active.push_back(v);
  }
  s.work_ += static_cast<double>(cluster.size());

  if (active.size() <= 1) {
    if (layout != nullptr) {
      layout->clear();
      NodeId rep = kInvalidNode;
      if (!active.empty()) {
        rep = active.front();
      } else {
        // All reads contained: the longest read carries the cluster sequence.
        rep = *std::max_element(
            cluster.begin(), cluster.end(), [&](NodeId a, NodeId b) {
              if (read_lengths_[a] != read_lengths_[b]) {
                return read_lengths_[a] < read_lengths_[b];
              }
              return a < b;
            });
      }
      layout->push_back(LayoutStep{rep, 0});
    }
    return true;
  }

  // Induced out-adjacency among active members, as a CSR over local indices
  // in the read graph's edge order. Every edge is written; only induced ones
  // advance the cursor.
  const std::size_t n = active.size();
  s.offsets_.resize(n + 1);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.offsets_[i] = static_cast<std::uint32_t>(k);
    const auto edges = reads_->out_edges(active[i]);
    if (s.targets_.size() < k + edges.size()) {
      s.targets_.resize(2 * (k + edges.size()));
      s.overlaps_.resize(s.targets_.size());
    }
    for (const DiEdge& e : edges) {
      s.targets_[k] = s.local_[e.to];
      s.overlaps_[k] = e.overlap;
      k += s.member_[e.to] == mark ? 1 : 0;
    }
    s.work_ += static_cast<double>(edges.size());
  }
  s.offsets_[n] = static_cast<std::uint32_t>(k);

  // Local transitive reduction: u->w is redundant if some active v gives
  // u->v and v->w (w != u). Row u stamps its direct heads, then bumps those
  // it reaches in two hops; the surviving edges fix u's successor and
  // in-degrees.
  if (s.reach_.size() < n) s.reach_.resize(n, 0);
  s.in_degree_.assign(n, 0);
  s.next_.assign(n, kNone);
  s.next_overlap_.resize(n);
  bool path_shaped = true;  // every reduced out- and in-degree <= 1
  std::size_t edge_total = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t begin = s.offsets_[u];
    const std::uint32_t end = s.offsets_[u + 1];
    s.stamp_ += 2;
    const std::uint64_t direct = s.stamp_;
    const std::uint64_t transitive = direct + 1;
    for (std::uint32_t e = begin; e < end; ++e) s.reach_[s.targets_[e]] = direct;
    s.reach_[u] = direct - 1;  // u itself is never transitive (self-loop)
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t mid = s.targets_[e];
      const std::uint32_t far_end = s.offsets_[mid + 1];
      for (std::uint32_t f = s.offsets_[mid]; f < far_end; ++f) {
        std::uint64_t& r = s.reach_[s.targets_[f]];
        r += r == direct ? 1 : 0;
      }
      s.work_ += static_cast<double>(far_end - s.offsets_[mid]);
    }
    if (!path_shaped) continue;  // decided; the scan above still counts
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t w = s.targets_[e];
      if (s.reach_[w] == transitive) continue;
      if (s.next_[u] != kNone || ++s.in_degree_[w] > 1) {
        path_shaped = false;
        break;
      }
      s.next_[u] = w;
      s.next_overlap_[u] = s.overlaps_[e];
      ++edge_total;
    }
  }

  // Path test: every node has in/out degree <= 1, there are exactly
  // |active|-1 edges, and the structure is connected (which, with the degree
  // bound and edge count, a unique zero-in-degree start implies).
  if (!path_shaped || edge_total != n - 1) return false;

  std::uint32_t start = kNone;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (s.in_degree_[u] == 0) {
      if (start != kNone) return false;  // two path starts: disconnected
      start = u;
    }
  }
  if (start == kNone) return false;  // cycle

  // Walk the path; must visit every active node exactly once.
  std::size_t visited = 1;
  for (std::uint32_t cur = start; s.next_[cur] != kNone; cur = s.next_[cur]) {
    ++visited;
  }
  if (visited != n) return false;

  if (layout != nullptr) {
    layout->clear();
    layout->reserve(n);
    for (std::uint32_t cur = start;; cur = s.next_[cur]) {
      const bool last = s.next_[cur] == kNone;
      layout->push_back(
          LayoutStep{active[cur], last ? Weight{0} : s.next_overlap_[cur]});
      if (last) break;
    }
  }
  return true;
}

}  // namespace focus::graph
