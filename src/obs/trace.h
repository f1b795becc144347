// Scoped trace spans emitting a schema-versioned JSONL journal.
//
// A trace answers "what did the solver ladder *do*" — which rungs ran, in
// what order, with what aggregate outcomes — where the metrics registry
// only answers "how much". The journal is a sequence of records, one JSON
// object per line:
//
//   {"schema": "bc-trace", "version": 1, "clock": "virtual"}   <- header
//   {"seq": 0, "type": "span", "name": "plan", "depth": 0,
//    "t0_ns": 1000, "t1_ns": 9000, "attrs": {...}}
//   {"seq": 1, "type": "point", "name": "executor.disruption",
//    "depth": 2, "t_ns": 12000, "attrs": {...}}
//
// Records are appended when a span *ends* (so a span's attrs can include
// results computed during it); `seq` restores causal order for readers.
//
// Determinism contract (see DESIGN.md §9): spans and points are only
// recorded from deterministic serial control flow. Inside a parallel
// region — pooled worker or the caller's inline execution of a chunk,
// i.e. whenever `support::in_parallel_region()` holds — emission is
// suppressed, because chunk interleaving (and even *whether* a given
// chunk runs on the caller) varies with BC_THREADS. Parallel work shows
// up instead as aggregate attrs on the enclosing serial span. Under the
// virtual clock (logical time: each query ticks a fixed step) the journal
// is therefore byte-identical at every thread count, which is what the
// golden tests pin.
//
// With no journal installed every macro-free call site reduces to one
// thread-local pointer test — cheap enough to leave compiled in.

#ifndef BUNDLECHARGE_OBS_TRACE_H_
#define BUNDLECHARGE_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/expected.h"

namespace bc::obs {

// Nanosecond timestamp source for trace records.
class TraceClock {
 public:
  virtual ~TraceClock() = default;
  virtual std::int64_t now_ns() = 0;
};

// Wall time from std::chrono::steady_clock (not byte-stable across runs).
class SteadyTraceClock final : public TraceClock {
 public:
  std::int64_t now_ns() override;
};

// Logical time: every query returns start + i*step for the i-th query.
// Two runs that make the same sequence of clock queries — which the
// determinism contract guarantees — produce identical timestamps, making
// journals byte-stable for golden tests.
class VirtualTraceClock final : public TraceClock {
 public:
  explicit VirtualTraceClock(std::int64_t start_ns = 0,
                             std::int64_t step_ns = 1000)
      : next_(start_ns), step_(step_ns) {}
  std::int64_t now_ns() override {
    const std::int64_t t = next_;
    next_ += step_;
    return t;
  }

 private:
  std::int64_t next_;
  std::int64_t step_;
};

// Pre-rendered attribute: `json` is the already-escaped JSON value text.
struct TraceAttr {
  std::string key;
  std::string json;
};

struct TraceRecord {
  std::uint64_t seq = 0;
  bool is_span = false;  // span has [t0,t1]; point has a single t
  std::string name;
  int depth = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::vector<TraceAttr> attrs;
};

// Collects records and serialises them to JSONL. Appends are mutex-
// protected (points may fire from serial sections of different call
// chains), but the determinism contract above keeps the *order* fixed.
class TraceJournal {
 public:
  // The journal takes ownership of the clock. Defaults to steady time.
  explicit TraceJournal(std::unique_ptr<TraceClock> clock = nullptr);
  ~TraceJournal();
  TraceJournal(const TraceJournal&) = delete;
  TraceJournal& operator=(const TraceJournal&) = delete;

  // "steady" or "virtual" — recorded in the JSONL header line.
  const std::string& clock_name() const;

  std::int64_t now_ns();
  void append(TraceRecord record);  // stamps seq
  std::size_t size() const;
  std::vector<TraceRecord> records() const;

  // Header line + one line per record, in seq order, '\n'-terminated.
  std::string to_jsonl() const;

  // Atomically writes to_jsonl() to `path`.
  support::Expected<bool> write(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
};

// Journal instrumentation currently appends to, or nullptr (tracing off).
TraceJournal* trace_journal();

// Installs `journal` as current for the scope. Must not race span
// emission, same as ScopedMetricsRegistry.
class ScopedTraceJournal {
 public:
  explicit ScopedTraceJournal(TraceJournal& journal);
  ~ScopedTraceJournal();
  ScopedTraceJournal(const ScopedTraceJournal&) = delete;
  ScopedTraceJournal& operator=(const ScopedTraceJournal&) = delete;

 private:
  TraceJournal* previous_;
};

// Re-enables span emission on a thread that is flagged as a parallel
// worker. Request handlers that solve inline (ScopedInlineExecution)
// install this right after the inline scope: the request runs strictly
// serially on its thread, so its spans are as well-ordered as a
// main-thread run, and without the opt-in a serving daemon could never
// journal its own service.* spans. Spans inside parallel_for chunks stay
// suppressed either way. Spans from concurrently-served requests
// interleave in journal order — a daemon trace is a diagnostic timeline,
// not a byte-stable artifact; drive the daemon serially when comparing
// journals.
class ScopedWorkerTracing {
 public:
  ScopedWorkerTracing();
  ~ScopedWorkerTracing();
  ScopedWorkerTracing(const ScopedWorkerTracing&) = delete;
  ScopedWorkerTracing& operator=(const ScopedWorkerTracing&) = delete;

 private:
  bool previous_;
};

// RAII span: records [construction, destruction] with nesting depth from
// a thread-local counter. Inactive (all methods no-ops) when no journal
// is installed or when constructed inside a parallel region.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& attr(std::string_view key, std::int64_t value);
  TraceSpan& attr(std::string_view key, std::uint64_t value);
  TraceSpan& attr(std::string_view key, double value);
  TraceSpan& attr(std::string_view key, bool value);
  TraceSpan& attr(std::string_view key, std::string_view value);
  TraceSpan& attr(std::string_view key, const char* value);

  bool active() const { return journal_ != nullptr; }

 private:
  TraceJournal* journal_;
  TraceRecord record_;
};

// Instantaneous event with the same activation rules as TraceSpan. The
// record is appended by emit() (or the destructor if emit() was never
// called), so attrs added before then are included.
class TracePoint {
 public:
  explicit TracePoint(std::string_view name);
  ~TracePoint();
  TracePoint(const TracePoint&) = delete;
  TracePoint& operator=(const TracePoint&) = delete;

  TracePoint& attr(std::string_view key, std::int64_t value);
  TracePoint& attr(std::string_view key, std::uint64_t value);
  TracePoint& attr(std::string_view key, double value);
  TracePoint& attr(std::string_view key, bool value);
  TracePoint& attr(std::string_view key, std::string_view value);
  TracePoint& attr(std::string_view key, const char* value);

  void emit();

 private:
  TraceJournal* journal_;
  TraceRecord record_;
};

// JSON-escapes `raw` and wraps it in double quotes.
std::string json_quote(std::string_view raw);

// `v` as %.17g: round-trips every double exactly and is locale-independent
// for the values emitted (no grouping, '.' decimal point).
std::string format_double(double v);

}  // namespace bc::obs

#endif  // BUNDLECHARGE_OBS_TRACE_H_
