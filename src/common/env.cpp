#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace focus {

namespace {

std::optional<std::string> read(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — the process-wide single call
  // site; see the header's concurrency contract.
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

}  // namespace

EnvSnapshot EnvSnapshot::capture() {
  EnvSnapshot s;
  s.threads = read("FOCUS_THREADS");
  s.seed_strategy = read("FOCUS_SEED_STRATEGY");
  s.graph_backend = read("FOCUS_GRAPH_BACKEND");
  s.graph_mem_budget = read("FOCUS_GRAPH_MEM_BUDGET");
  s.graph_spill_dir = read("FOCUS_GRAPH_SPILL_DIR");
  s.graph_write_fault = read("FOCUS_GRAPH_WRITE_FAULT");
  s.fault_seed = read("FOCUS_FAULT_SEED");
  s.fault_crash = read("FOCUS_FAULT_CRASH");
  s.fault_drop = read("FOCUS_FAULT_DROP");
  s.fault_dup = read("FOCUS_FAULT_DUP");
  s.fault_corrupt = read("FOCUS_FAULT_CORRUPT");
  s.fault_delay = read("FOCUS_FAULT_DELAY");
  s.fault_max_retries = read("FOCUS_FAULT_MAX_RETRIES");
  s.fault_recv_timeout = read("FOCUS_FAULT_RECV_TIMEOUT");
  s.bench_scale = read("FOCUS_BENCH_SCALE");
  s.bench_coverage = read("FOCUS_BENCH_COVERAGE");
  return s;
}

std::optional<unsigned> EnvSnapshot::thread_count() const {
  if (!threads.has_value() || threads->empty()) return std::nullopt;
  const std::uint64_t parsed = env::parse_u64("FOCUS_THREADS", *threads);
  if (parsed == 0) return std::nullopt;  // explicit "auto"
  if (parsed > 256) {
    FOCUS_THROW("FOCUS_THREADS must be in [0, 256] (0 = auto), got '" +
                *threads + "'");
  }
  return static_cast<unsigned>(parsed);
}

namespace env {

std::uint64_t parse_u64(const char* name, const std::string& value) {
  if (value.empty()) {
    FOCUS_THROW(std::string(name) + " must be an unsigned integer, got ''");
  }
  for (const char c : value) {
    if (c < '0' || c > '9') {
      FOCUS_THROW(std::string(name) + " must be an unsigned integer, got '" +
                  value + "'");
    }
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    FOCUS_THROW(std::string(name) + " must be an unsigned integer, got '" +
                value + "'");
  }
  return parsed;
}

double parse_double(const char* name, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    FOCUS_THROW(std::string(name) + " must be a number, got '" + value + "'");
  }
  return parsed;
}

double parse_rate(const char* name, const std::string& value) {
  const double rate = parse_double(name, value);
  if (!(rate >= 0.0 && rate <= 1.0)) {
    FOCUS_THROW(std::string(name) + " must be a probability in [0, 1], got '" +
                value + "'");
  }
  return rate;
}

}  // namespace env

}  // namespace focus
