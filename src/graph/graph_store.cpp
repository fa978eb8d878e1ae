#include "graph/graph_store.hpp"

#include <atomic>
#include <cstring>
#include <fstream>
#include <limits>

#include <unistd.h>

#include "common/checksum.hpp"
#include "common/env.hpp"
#include "common/error.hpp"

namespace focus::graph {

namespace {

constexpr std::uint32_t kSliceMagic = 0x434c5346u;  // "FSLC" little-endian
constexpr std::uint32_t kSliceVersion = 1;
constexpr std::size_t kSliceHeaderBytes = 20;  // magic, version, size, crc

void put_le_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_le_u64(std::uint8_t* out, std::uint64_t v) {
  put_le_u32(out, static_cast<std::uint32_t>(v));
  put_le_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_le_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_le_u32(in)) |
         (static_cast<std::uint64_t>(get_le_u32(in + 4)) << 32);
}

std::atomic<std::uint64_t> g_spill_dir_counter{0};

}  // namespace

GraphStoreConfig GraphStoreConfig::from_env() {
  return from_env(EnvSnapshot::capture());
}

GraphStoreConfig GraphStoreConfig::from_env(const EnvSnapshot& env) {
  GraphStoreConfig config;
  if (env.graph_backend.has_value() && !env.graph_backend->empty()) {
    const std::string& name = *env.graph_backend;
    if (name == "memory") {
      config.backend = GraphStoreBackend::kInMemory;
    } else if (name == "csr-spill" || name == "csr_spill") {
      config.backend = GraphStoreBackend::kCsrSpill;
    } else {
      FOCUS_THROW("FOCUS_GRAPH_BACKEND: unknown backend '" + name +
                  "' (expected 'memory' or 'csr-spill')");
    }
  }
  if (env.graph_mem_budget.has_value() && !env.graph_mem_budget->empty()) {
    config.mem_budget_bytes = parse_mem_size(*env.graph_mem_budget);
  }
  if (env.graph_spill_dir.has_value() && !env.graph_spill_dir->empty()) {
    config.spill_dir = *env.graph_spill_dir;
  }
  if (env.graph_write_fault.has_value() && !env.graph_write_fault->empty()) {
    // focus::env::parse_u64 rejects signs, trailing junk and overflow with a
    // typed error naming the value — a raw std::stoull would let a malformed
    // knob escape as std::invalid_argument / std::out_of_range.
    config.write_fault_nth =
        focus::env::parse_u64("FOCUS_GRAPH_WRITE_FAULT",
                              *env.graph_write_fault);
  }
  return config;
}

std::size_t parse_mem_size(const std::string& text) {
  FOCUS_CHECK(!text.empty(), "memory size: empty string");
  // Digits only before the optional unit suffix: std::stoull would accept a
  // leading sign ("-5M" wraps to a huge budget) and whitespace.
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  FOCUS_CHECK(pos > 0, "memory size: cannot parse '" + text + "'");
  unsigned long long value = 0;
  try {
    value = std::stoull(text.substr(0, pos));
  } catch (const std::exception&) {
    FOCUS_THROW("memory size: out of range '" + text + "'");
  }
  std::size_t factor = 1;
  if (pos < text.size()) {
    FOCUS_CHECK(pos + 1 == text.size(),
                "memory size: trailing garbage in '" + text + "'");
    switch (text[pos]) {
      case 'k': case 'K': factor = std::size_t{1} << 10; break;
      case 'm': case 'M': factor = std::size_t{1} << 20; break;
      case 'g': case 'G': factor = std::size_t{1} << 30; break;
      default:
        FOCUS_THROW("memory size: unknown suffix in '" + text +
                    "' (expected K, M or G)");
    }
  }
  FOCUS_CHECK(factor == 1 ||
                  value <= std::numeric_limits<std::size_t>::max() / factor,
              "memory size: out of range '" + text + "'");
  return static_cast<std::size_t>(value) * factor;
}

SpillManager::SpillManager(const GraphStoreConfig& config)
    : budget_(config.mem_budget_bytes),
      write_fault_at_(config.write_fault_nth) {
  std::filesystem::path base = config.spill_dir.empty()
                                   ? std::filesystem::temp_directory_path()
                                   : std::filesystem::path(config.spill_dir);
  const std::uint64_t tag =
      g_spill_dir_counter.fetch_add(1, std::memory_order_relaxed);
  // The counter and the address repeat across processes (a fork, or an
  // identical heap layout), so the pid keeps concurrent processes apart.
  dir_ = base / ("focus-graph-store-" + std::to_string(::getpid()) + "-" +
                 std::to_string(tag) + "-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this)));
  std::filesystem::create_directories(base);
  if (!std::filesystem::create_directory(dir_)) {
    FOCUS_THROW("graph store: spill directory already exists: " +
                dir_.string());
  }
  owns_dir_ = true;
}

SpillManager::~SpillManager() {
  if (owns_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best effort
  }
}

std::filesystem::path SpillManager::slice_path(std::uint32_t id) const {
  return dir_ / ("slice_" + std::to_string(id) + ".fsl");
}

void SpillManager::insert(std::uint32_t id, std::vector<std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  FOCUS_ASSERT(entries_.find(id) == entries_.end(),
               "graph store: duplicate slice id");
  Entry entry;
  entry.bytes = payload.size();
  entry.payload =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(payload));
  lru_.push_front(id);
  entry.lru = lru_.begin();
  stats_.slices += 1;
  stats_.bytes_total += entry.bytes;
  stats_.resident_bytes += entry.bytes;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  entries_.emplace(id, std::move(entry));
  make_resident_room_locked(0);
}

SpillManager::Blob SpillManager::fetch(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  FOCUS_ASSERT(it != entries_.end(), "graph store: unknown slice id");
  Entry& entry = it->second;
  if (entry.payload != nullptr) {
    lru_.erase(entry.lru);
    lru_.push_front(id);
    entry.lru = lru_.begin();
    return entry.payload;
  }
  Blob blob = load_slice_locked(id, entry);
  entry.payload = blob;
  lru_.push_front(id);
  entry.lru = lru_.begin();
  stats_.loads += 1;
  stats_.resident_bytes += entry.bytes;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  make_resident_room_locked(0);
  return blob;
}

void SpillManager::evict_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) evict_one_locked();
}

void SpillManager::set_write_fault(std::uint64_t nth_write) {
  std::lock_guard<std::mutex> lock(mu_);
  write_fault_at_ = nth_write;
}

SpillStats SpillManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SpillManager::make_resident_room_locked(std::size_t incoming) const {
  if (budget_ == 0) return;  // unlimited
  while (stats_.resident_bytes + incoming > budget_ && !lru_.empty()) {
    evict_one_locked();
  }
}

void SpillManager::evict_one_locked() const {
  FOCUS_ASSERT(!lru_.empty(), "graph store: eviction with no resident slice");
  const std::uint32_t victim = lru_.back();
  Entry& entry = entries_.at(victim);
  if (!entry.on_disk) write_slice_locked(victim, entry);
  entry.payload.reset();
  lru_.pop_back();
  stats_.evictions += 1;
  stats_.resident_bytes -= entry.bytes;
}

void SpillManager::write_slice_locked(std::uint32_t id, Entry& entry) const {
  FOCUS_ASSERT(entry.payload != nullptr,
               "graph store: writing an evicted slice");
  const std::vector<std::uint8_t>& payload = *entry.payload;
  std::uint8_t header[kSliceHeaderBytes];
  put_le_u32(header + 0, kSliceMagic);
  put_le_u32(header + 4, kSliceVersion);
  put_le_u64(header + 8, payload.size());
  put_le_u32(header + 16, common::crc32(payload.data(), payload.size()));

  const std::filesystem::path final_path = slice_path(id);
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp";
  for (int attempt = 0;; ++attempt) {
    stats_.writes += 1;
    const bool inject_fault =
        write_fault_at_ != 0 && stats_.writes == write_fault_at_;
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      FOCUS_CHECK(out.good(), "graph store: cannot open slice file " +
                                  tmp_path.string());
      out.write(reinterpret_cast<const char*>(header), kSliceHeaderBytes);
      // An injected fault models a crash mid-write: only part of the payload
      // reaches the temp file, which is then discarded and the write retried
      // — the atomic rename below never sees the partial file.
      const std::size_t n = inject_fault ? payload.size() / 2 : payload.size();
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(n));
      out.flush();
      FOCUS_CHECK(out.good(), "graph store: short write to slice file " +
                                  tmp_path.string());
    }
    if (!inject_fault) break;
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    stats_.write_retries += 1;
    FOCUS_CHECK(attempt == 0, "graph store: repeated write faults on slice " +
                                  final_path.string());
  }
  std::filesystem::rename(tmp_path, final_path);
  entry.on_disk = true;
}

SpillManager::Blob SpillManager::load_slice_locked(std::uint32_t id,
                                                   Entry& entry) const {
  const std::filesystem::path path = slice_path(id);
  std::ifstream in(path, std::ios::binary);
  FOCUS_CHECK(in.good(),
              "graph store: cannot open slice file " + path.string());
  std::uint8_t header[kSliceHeaderBytes];
  in.read(reinterpret_cast<char*>(header), kSliceHeaderBytes);
  FOCUS_CHECK(in.gcount() == static_cast<std::streamsize>(kSliceHeaderBytes),
              "graph store: truncated slice header in " + path.string());
  FOCUS_CHECK(get_le_u32(header + 0) == kSliceMagic,
              "graph store: bad slice magic in " + path.string());
  FOCUS_CHECK(get_le_u32(header + 4) == kSliceVersion,
              "graph store: unsupported slice version in " + path.string());
  const std::uint64_t payload_size = get_le_u64(header + 8);
  const std::uint32_t expected_crc = get_le_u32(header + 16);
  FOCUS_CHECK(payload_size == entry.bytes,
              "graph store: slice size mismatch in " + path.string());
  auto payload = std::make_shared<std::vector<std::uint8_t>>(payload_size);
  in.read(reinterpret_cast<char*>(payload->data()),
          static_cast<std::streamsize>(payload_size));
  FOCUS_CHECK(in.gcount() == static_cast<std::streamsize>(payload_size),
              "graph store: truncated slice payload in " + path.string());
  const std::uint32_t crc = common::crc32(payload->data(), payload->size());
  FOCUS_CHECK(crc == expected_crc,
              "graph store: slice checksum mismatch in " + path.string());
  return payload;
}

void SliceWriter::put_u32(std::uint32_t v) {
  const std::size_t off = bytes_.size();
  bytes_.resize(off + 4);
  put_le_u32(bytes_.data() + off, v);
}

void SliceWriter::put_u64(std::uint64_t v) {
  const std::size_t off = bytes_.size();
  bytes_.resize(off + 8);
  put_le_u64(bytes_.data() + off, v);
}

std::uint8_t slice_u8(const std::vector<std::uint8_t>& blob, std::size_t off) {
  FOCUS_ASSERT(off < blob.size(), "graph store: slice read out of bounds");
  return blob[off];
}

std::uint32_t slice_u32(const std::vector<std::uint8_t>& blob,
                        std::size_t off) {
  FOCUS_ASSERT(off + 4 <= blob.size(),
               "graph store: slice read out of bounds");
  return get_le_u32(blob.data() + off);
}

std::uint64_t slice_u64(const std::vector<std::uint8_t>& blob,
                        std::size_t off) {
  FOCUS_ASSERT(off + 8 <= blob.size(),
               "graph store: slice read out of bounds");
  return get_le_u64(blob.data() + off);
}

void HierarchySpill::spill_level(std::size_t level, const Graph& g) {
  FOCUS_ASSERT(level == levels_, "hierarchy spill: levels must be sequential");
  SliceWriter w;
  const std::size_t n = g.node_count();
  w.put_u32(static_cast<std::uint32_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    w.put_i64(g.node_weight(v));
  }
  // Each undirected edge appears in both endpoints' adjacency; serialize the
  // u < v direction only so GraphBuilder's merge-by-sum does not double it.
  std::uint64_t m = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.neighbors(v)) {
      if (v < e.to) ++m;
    }
  }
  w.put_u64(m);
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.neighbors(v)) {
      if (v < e.to) {
        w.put_u32(v);
        w.put_u32(e.to);
        w.put_i64(e.weight);
      }
    }
  }
  manager_->insert(id_base_ + static_cast<std::uint32_t>(level), w.take());
  levels_ += 1;
}

Graph HierarchySpill::load_level(std::size_t level) const {
  FOCUS_ASSERT(level < levels_, "hierarchy spill: unknown level");
  SpillManager::Blob blob =
      manager_->fetch(id_base_ + static_cast<std::uint32_t>(level));
  const std::vector<std::uint8_t>& b = *blob;
  std::size_t off = 0;
  const std::uint32_t n = slice_u32(b, off);
  off += 4;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    builder.set_node_weight(v, static_cast<Weight>(slice_u64(b, off)));
    off += 8;
  }
  const std::uint64_t m = slice_u64(b, off);
  off += 8;
  for (std::uint64_t i = 0; i < m; ++i) {
    const NodeId u = slice_u32(b, off);
    const NodeId v = slice_u32(b, off + 4);
    const Weight weight = static_cast<Weight>(slice_u64(b, off + 8));
    off += 16;
    builder.add_edge(u, v, weight);
  }
  return builder.build();
}

}  // namespace focus::graph
