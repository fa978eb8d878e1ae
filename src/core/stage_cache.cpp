#include "core/stage_cache.hpp"

#include "core/assembler.hpp"

namespace focus::core {

namespace {

// Domain tags keep the three key spaces (and the dataset digest) disjoint
// even if two stages ever absorbed identical field streams.
constexpr std::uint64_t kDatasetTag = 0x464f435553445331ull;   // "FOCUSDS1"
constexpr std::uint64_t kPreprocessTag = 0x464f435553503131ull;
constexpr std::uint64_t kOverlapTag = 0x464f435553503231ull;
constexpr std::uint64_t kCoarsenTag = 0x464f435553503331ull;

/// Everything about *how* a stage runs that leaks into its recorded stats:
/// rank count, cost-model constants, the fault schedule and recovery knobs.
/// Outputs are invariant to these (the determinism tests prove it), but
/// RunStats are not, and a hit must reproduce both.
void absorb_envelope(common::Hasher& h, const FocusConfig& c) {
  h.u64(static_cast<std::uint64_t>(c.ranks));
  h.f64(c.cost.alpha).f64(c.cost.beta).f64(c.cost.gamma);
  const mpr::FaultPlan& fp = c.fault_plan;
  h.u64(fp.seed)
      .f64(fp.p_crash)
      .f64(fp.p_drop)
      .f64(fp.p_duplicate)
      .f64(fp.p_corrupt)
      .f64(fp.p_delay)
      .f64(fp.delay_vtime);
  h.u64(fp.crashes.size());
  for (const mpr::CrashPoint& cp : fp.crashes) {
    h.u64(static_cast<std::uint64_t>(cp.rank)).u64(cp.op);
  }
  h.u64(static_cast<std::uint64_t>(c.fault.max_retries));
  h.f64(c.fault.recv_timeout_vtime);
}

}  // namespace

common::Digest dataset_digest(const io::ReadSet& reads) {
  common::Hasher h(kDatasetTag);
  h.u64(reads.size());
  for (const io::Read& r : reads) {
    h.str(r.name).str(r.seq).str(r.qual);
    h.u64(r.origin).boolean(r.reverse);
  }
  return h.finish();
}

common::Digest preprocess_key(const common::Digest& dataset,
                              const FocusConfig& config) {
  common::Hasher h(kPreprocessTag);
  h.digest(dataset);
  const io::PreprocessConfig& p = config.preprocess;
  h.u64(p.trim5).u64(p.trim3).u64(p.window_len).u64(p.window_step);
  h.f64(p.min_quality);
  h.u64(p.min_length).boolean(p.add_reverse_complements);
  absorb_envelope(h, config);
  return h.finish();
}

common::Digest overlap_key(const common::Digest& preprocess,
                           const FocusConfig& config) {
  common::Hasher h(kOverlapTag);
  h.digest(preprocess);
  const align::OverlapperConfig& o = config.overlap;
  h.u64(o.k).u64(o.min_kmer_hits);
  h.u64(static_cast<std::uint64_t>(o.diagonal_tolerance));
  h.u64(o.max_kmer_occurrences).u64(o.min_overlap);
  h.f64(o.min_identity);
  h.u64(o.band).u64(o.subsets).u64(o.threads);
  h.u64(static_cast<std::uint64_t>(o.seed_backend));
  h.u64(static_cast<std::uint64_t>(o.strategy));
  absorb_envelope(h, config);
  return h.finish();
}

common::Digest coarsen_key(const common::Digest& overlap,
                           const FocusConfig& config) {
  common::Hasher h(kCoarsenTag);
  h.digest(overlap);
  const graph::CoarsenConfig& g = config.coarsen;
  h.u64(g.min_nodes).u64(g.max_levels);
  h.f64(g.min_reduction);
  h.u64(static_cast<std::uint64_t>(g.max_node_weight));
  h.u64(g.seed).u64(g.threads);
  absorb_envelope(h, config);
  return h.finish();
}

}  // namespace focus::core
