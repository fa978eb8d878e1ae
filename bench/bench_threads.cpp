// Serial vs work-stealing-pool wall-clock for the alignment, coarsening and
// hybrid-selection hot paths, recorded as a BENCH json.
//
//   $ ./bench_threads [output.json]
//
// Measures find_overlaps_serial() against find_overlaps() at 1/2/4/8 pool
// threads, serial vs pooled heavy-edge-matching coarsening, and
// build_hybrid (level-by-level representative selection) at 1/2/4/8 threads
// against its width-1 run, on the D1 simulated benchmark dataset (FOCUS_BENCH_SCALE / FOCUS_BENCH_COVERAGE
// apply). Every pooled run is checked byte-identical against the serial
// reference before its timing is reported, so the json never records a
// speedup bought with a wrong answer. Default output: bench_threads.json.
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "graph/coarsen.hpp"
#include "graph/hybrid.hpp"

namespace {

using namespace focus;

constexpr unsigned kWidths[] = {1, 2, 4, 8};
constexpr int kRepeats = 3;  // best-of; absorbs allocator/cache warmup noise

double best_of(int repeats, const std::function<double()>& run_once) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t = run_once();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

bool same_overlaps(const std::vector<align::Overlap>& a,
                   const std::vector<align::Overlap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query || a[i].ref != b[i].ref ||
        a[i].length != b[i].length || a[i].identity != b[i].identity ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    if (a.node_weight(v) != b.node_weight(v) || a.degree(v) != b.degree(v)) {
      return false;
    }
    for (std::size_t i = 0; i < a.degree(v); ++i) {
      if (a.neighbors(v)[i].to != b.neighbors(v)[i].to ||
          a.neighbors(v)[i].weight != b.neighbors(v)[i].weight) {
        return false;
      }
    }
  }
  return true;
}

bool same_hybrid(const graph::HybridGraphSet& a,
                 const graph::HybridGraphSet& b) {
  if (a.hierarchy.depth() != b.hierarchy.depth() ||
      a.hierarchy.parent != b.hierarchy.parent ||
      a.cluster_reads != b.cluster_reads ||
      a.reps_per_level != b.reps_per_level ||
      a.selection_work != b.selection_work ||
      a.origin.size() != b.origin.size() ||
      a.layouts.size() != b.layouts.size()) {
    return false;
  }
  for (std::size_t l = 0; l < a.hierarchy.depth(); ++l) {
    if (!same_graph(a.hierarchy.levels[l], b.hierarchy.levels[l])) return false;
    if (a.origin[l].size() != b.origin[l].size()) return false;
    for (std::size_t h = 0; h < a.origin[l].size(); ++h) {
      if (a.origin[l][h].ml_level != b.origin[l][h].ml_level ||
          a.origin[l][h].ml_node != b.origin[l][h].ml_node) {
        return false;
      }
    }
  }
  for (std::size_t h = 0; h < a.layouts.size(); ++h) {
    if (a.layouts[h].size() != b.layouts[h].size()) return false;
    for (std::size_t i = 0; i < a.layouts[h].size(); ++i) {
      if (a.layouts[h][i].read != b.layouts[h][i].read ||
          a.layouts[h][i].overlap_to_next != b.layouts[h][i].overlap_to_next) {
        return false;
      }
    }
  }
  return true;
}

struct Series {
  double serial_seconds = 0.0;
  std::vector<double> pool_seconds;  // parallel to kWidths
  bool identical = true;
};

void print_series(const char* name, const Series& s) {
  std::printf("\n%s\n", name);
  std::printf("  %-10s %12s %10s\n", "threads", "seconds", "speedup");
  std::printf("  %-10s %12.3f %10s\n", "serial", s.serial_seconds, "1.00x");
  for (std::size_t w = 0; w < s.pool_seconds.size(); ++w) {
    std::printf("  %-10u %12.3f %9.2fx\n", kWidths[w], s.pool_seconds[w],
                s.serial_seconds / s.pool_seconds[w]);
  }
  std::printf("  output identical to serial: %s\n",
              s.identical ? "yes" : "NO (BUG)");
}

void json_series(std::FILE* f, const char* name, const Series& s,
                 bool trailing_comma) {
  std::fprintf(f, "  \"%s\": {\n", name);
  std::fprintf(f, "    \"serial_seconds\": %.6f,\n", s.serial_seconds);
  std::fprintf(f, "    \"identical_output\": %s,\n",
               s.identical ? "true" : "false");
  std::fprintf(f, "    \"pool\": [\n");
  for (std::size_t w = 0; w < s.pool_seconds.size(); ++w) {
    std::fprintf(f,
                 "      {\"threads\": %u, \"seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 kWidths[w], s.pool_seconds[w],
                 s.serial_seconds / s.pool_seconds[w],
                 w + 1 < s.pool_seconds.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "bench_threads.json";

  bench::print_header(
      "bench_threads — serial vs work-stealing pool (alignment, coarsening "
      "& hybrid selection)");
  std::printf("hardware threads: %u   FOCUS_THREADS default: %u\n",
              std::thread::hardware_concurrency(), default_thread_count());

  // Dataset D1, same preprocessing as every other bench driver.
  sim::Dataset dataset =
      sim::make_dataset(1, bench::bench_scale(), bench::bench_coverage());
  const core::FocusConfig cfg = bench::bench_config();
  const io::ReadSet reads = io::preprocess(dataset.data.reads, cfg.preprocess);
  std::fprintf(stderr, "[bench_threads] %zu preprocessed reads\n",
               reads.size());

  // --- Overlap stage -------------------------------------------------------
  Series overlap;
  align::OverlapperConfig ocfg = cfg.overlap;
  std::vector<align::Overlap> reference;
  overlap.serial_seconds = best_of(kRepeats, [&] {
    Timer t;
    reference = align::find_overlaps_serial(reads, ocfg);
    return t.seconds();
  });
  for (const unsigned width : kWidths) {
    ocfg.threads = width;
    std::vector<align::Overlap> pooled;
    overlap.pool_seconds.push_back(best_of(kRepeats, [&] {
      Timer t;
      pooled = align::find_overlaps(reads, ocfg);
      return t.seconds();
    }));
    overlap.identical = overlap.identical && same_overlaps(reference, pooled);
  }
  print_series("overlap stage (find_overlaps, §II-B)", overlap);

  // --- Coarsening stage ----------------------------------------------------
  Series coarsen;
  const graph::Graph g0 = graph::build_overlap_graph(reads.size(), reference);
  graph::CoarsenConfig ccfg = cfg.coarsen;
  ccfg.threads = 1;
  graph::GraphHierarchy ref_hierarchy;
  coarsen.serial_seconds = best_of(kRepeats, [&] {
    Timer t;
    ref_hierarchy = graph::build_multilevel(g0, ccfg);
    return t.seconds();
  });
  for (const unsigned width : kWidths) {
    ccfg.threads = width;
    graph::GraphHierarchy pooled;
    coarsen.pool_seconds.push_back(best_of(kRepeats, [&] {
      Timer t;
      pooled = graph::build_multilevel(g0, ccfg);
      return t.seconds();
    }));
    coarsen.identical = coarsen.identical &&
                        pooled.parent == ref_hierarchy.parent &&
                        pooled.depth() == ref_hierarchy.depth();
  }
  print_series("coarsening stage (build_multilevel, §II-C)", coarsen);

  // --- Hybrid graph set ----------------------------------------------------
  // The "serial" column is build_hybrid at width 1; every width must
  // reproduce its hybrid set and selection work exactly.
  Series hybrid;
  const graph::Digraph read_graph =
      graph::build_read_digraph(reads.size(), reference);
  std::vector<std::uint32_t> lengths;
  lengths.reserve(reads.size());
  for (const auto& r : reads) {
    lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
  }
  graph::HybridGraphSet ref_hybrid;
  hybrid.serial_seconds = best_of(kRepeats, [&] {
    Timer t;
    ref_hybrid = graph::build_hybrid(ref_hierarchy, read_graph, lengths, 1);
    return t.seconds();
  });
  for (const unsigned width : kWidths) {
    graph::HybridGraphSet pooled;
    hybrid.pool_seconds.push_back(best_of(kRepeats, [&] {
      Timer t;
      pooled = graph::build_hybrid(ref_hierarchy, read_graph, lengths, width);
      return t.seconds();
    }));
    hybrid.identical = hybrid.identical && same_hybrid(pooled, ref_hybrid);
  }
  print_series("hybrid graph set (build_hybrid, §II-D)", hybrid);

  // --- BENCH json ----------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"threads\",\n");
  std::fprintf(f, "  \"dataset\": \"%s\",\n", dataset.name.c_str());
  std::fprintf(f, "  \"reads\": %zu,\n", reads.size());
  std::fprintf(f, "  \"overlaps\": %zu,\n", reference.size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  json_series(f, "overlap", overlap, /*trailing_comma=*/true);
  json_series(f, "coarsen", coarsen, /*trailing_comma=*/true);
  json_series(f, "hybrid", hybrid, /*trailing_comma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  return (overlap.identical && coarsen.identical && hybrid.identical) ? 0 : 1;
}
