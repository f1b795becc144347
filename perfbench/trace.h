// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into the library's public functions, so the
// program under test carries no instrumentation of the benchmark's.
//
// Each span has a name, start, end, parent and request id; spans stay in
// memory and are written out as JSON lines at the end of the run. A
// span's self time is its duration minus its direct children's.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   // index into spans(), -1 for a root
  std::uint64_t request = 0;  // request (plan) id shared by a tree

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Single-threaded: spans nest in call order on the recording thread.
class Recorder {
 public:
  Recorder();

  // Opens a span under the innermost open one; returns its index.
  std::size_t open(std::string name, std::uint64_t request);
  void close(std::size_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  double self_ms(std::size_t index) const;
  // Sum of all direct children's durations.
  double children_ms(std::size_t index) const;

  // Writes one JSON object per span; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

// RAII span; a null recorder records nothing, so the same code path runs
// traced and untraced.
class Span {
 public:
  Span(Recorder* recorder, std::string name, std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name), request) : 0) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::size_t index() const { return index_; }

 private:
  Recorder* recorder_;
  std::size_t index_;
};

// Per-plan time of each span name under replay roots: one sample per root
// and name (inclusive durations, summed when a name repeats in a plan).
class LayerTimes {
 public:
  void add(const Recorder& recorder, std::size_t root);
  // Median per-plan time of `name`; plans without it count as zero.
  double median_ms(const std::string& name) const;

 private:
  std::size_t plans_ = 0;
  std::map<std::string, std::vector<double>> ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
