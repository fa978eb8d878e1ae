// In-memory span recorder for the benchmark's traced run.
//
// The harness opens a span around each call it makes into a library layer
// (io, align, graph, partition, core, dist, svc). A span records its name,
// start, end and the id of the span that was open when it began, so nested
// spans form a tree. Spans stay in memory; the harness writes them once,
// when the run ends. Nothing here is linked into the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int id = 0;
  int parent = -1;  // -1: a root span

  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name) : recorder_(&recorder) {
      index_ = recorder.open(std::move(name));
    }
    ~Scope() { recorder_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the time its direct children cover.
  /// Children of one parent run one after another on the harness thread, so
  /// their intervals never overlap and the covered time is their sum.
  double self_seconds(std::size_t index) const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == spans_[index].id) covered += s.seconds();
    }
    return spans_[index].seconds() - covered;
  }

  /// Summed duration of every span called `name`.
  double total_seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.seconds();
    }
    return total;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : spans_[open_.back()].id;
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end = now();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices of the currently open spans
};

}  // namespace perfbench
