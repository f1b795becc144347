#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "support/atomic_file.h"
#include "support/parallel.h"

namespace bc::obs {
namespace {

TraceJournal* g_current_journal = nullptr;
thread_local int t_span_depth = 0;
thread_local bool t_worker_tracing = false;

// Spans are recorded only from deterministic serial control flow: inside
// a parallel_for chunk the records' existence and order would depend on
// BC_THREADS, so chunks never journal. Threads flagged as workers are
// suppressed too, *unless* they opted in via ScopedWorkerTracing — a
// request thread under ScopedInlineExecution runs strictly serially, so
// its spans are as well-ordered as a main-thread run.
bool tracing_suppressed() {
  if (g_current_journal == nullptr || support::in_parallel_chunk()) {
    return true;
  }
  return support::in_parallel_worker() && !t_worker_tracing;
}

}  // namespace

std::int64_t SteadyTraceClock::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TraceJournal::Impl {
  std::unique_ptr<TraceClock> clock;
  std::string clock_name;
  mutable std::mutex mu;
  std::uint64_t next_seq = 0;
  std::vector<TraceRecord> records;
};

TraceJournal::TraceJournal(std::unique_ptr<TraceClock> clock)
    : impl_(new Impl()) {
  if (clock == nullptr) {
    impl_->clock = std::make_unique<SteadyTraceClock>();
    impl_->clock_name = "steady";
  } else {
    impl_->clock = std::move(clock);
    impl_->clock_name =
        dynamic_cast<VirtualTraceClock*>(impl_->clock.get()) != nullptr
            ? "virtual"
            : "steady";
  }
}

TraceJournal::~TraceJournal() { delete impl_; }

const std::string& TraceJournal::clock_name() const {
  return impl_->clock_name;
}

std::int64_t TraceJournal::now_ns() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->clock->now_ns();
}

void TraceJournal::append(TraceRecord record) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  record.seq = impl_->next_seq++;
  impl_->records.push_back(std::move(record));
}

std::size_t TraceJournal::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records.size();
}

std::vector<TraceRecord> TraceJournal::records() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records;
}

std::string TraceJournal::to_jsonl() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out = "{\"schema\": \"bc-trace\", \"version\": 1, \"clock\": " +
                    json_quote(impl_->clock_name) + "}\n";
  for (const TraceRecord& r : impl_->records) {
    out += "{\"seq\": " + std::to_string(r.seq);
    out += ", \"type\": ";
    out += r.is_span ? "\"span\"" : "\"point\"";
    out += ", \"name\": " + json_quote(r.name);
    out += ", \"depth\": " + std::to_string(r.depth);
    if (r.is_span) {
      out += ", \"t0_ns\": " + std::to_string(r.t0_ns);
      out += ", \"t1_ns\": " + std::to_string(r.t1_ns);
    } else {
      out += ", \"t_ns\": " + std::to_string(r.t0_ns);
    }
    out += ", \"attrs\": {";
    for (std::size_t i = 0; i < r.attrs.size(); ++i) {
      if (i != 0) out += ", ";
      out += json_quote(r.attrs[i].key) + ": " + r.attrs[i].json;
    }
    out += "}}\n";
  }
  return out;
}

support::Expected<bool> TraceJournal::write(const std::string& path) const {
  if (!support::write_file_atomic(path, to_jsonl())) {
    return support::Fault{support::FaultKind::kInvalidInput,
                          "cannot write trace file: " + path};
  }
  return true;
}

TraceJournal* trace_journal() { return g_current_journal; }

ScopedWorkerTracing::ScopedWorkerTracing() : previous_(t_worker_tracing) {
  t_worker_tracing = true;
}

ScopedWorkerTracing::~ScopedWorkerTracing() { t_worker_tracing = previous_; }

ScopedTraceJournal::ScopedTraceJournal(TraceJournal& journal)
    : previous_(g_current_journal) {
  g_current_journal = &journal;
}

ScopedTraceJournal::~ScopedTraceJournal() {
  g_current_journal = previous_;
}

TraceSpan::TraceSpan(std::string_view name)
    : journal_(tracing_suppressed() ? nullptr : g_current_journal) {
  if (journal_ == nullptr) return;
  record_.is_span = true;
  record_.name = std::string(name);
  record_.depth = t_span_depth++;
  record_.t0_ns = journal_->now_ns();
}

TraceSpan::~TraceSpan() {
  if (journal_ == nullptr) return;
  --t_span_depth;
  record_.t1_ns = journal_->now_ns();
  journal_->append(std::move(record_));
}

TraceSpan& TraceSpan::attr(std::string_view key, std::int64_t value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), std::to_string(value)});
  }
  return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, std::uint64_t value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), std::to_string(value)});
  }
  return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, double value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), format_double(value)});
  }
  return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, bool value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), value ? "true" : "false"});
  }
  return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, std::string_view value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), json_quote(value)});
  }
  return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, const char* value) {
  return attr(key, std::string_view(value));
}

TracePoint::TracePoint(std::string_view name)
    : journal_(tracing_suppressed() ? nullptr : g_current_journal) {
  if (journal_ == nullptr) return;
  record_.is_span = false;
  record_.name = std::string(name);
  record_.depth = t_span_depth;
  record_.t0_ns = journal_->now_ns();
}

TracePoint::~TracePoint() { emit(); }

void TracePoint::emit() {
  if (journal_ == nullptr) return;
  journal_->append(std::move(record_));
  journal_ = nullptr;
}

TracePoint& TracePoint::attr(std::string_view key, std::int64_t value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), std::to_string(value)});
  }
  return *this;
}

TracePoint& TracePoint::attr(std::string_view key, std::uint64_t value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), std::to_string(value)});
  }
  return *this;
}

TracePoint& TracePoint::attr(std::string_view key, double value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), format_double(value)});
  }
  return *this;
}

TracePoint& TracePoint::attr(std::string_view key, bool value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), value ? "true" : "false"});
  }
  return *this;
}

TracePoint& TracePoint::attr(std::string_view key, std::string_view value) {
  if (journal_ != nullptr) {
    record_.attrs.push_back({std::string(key), json_quote(value)});
  }
  return *this;
}

TracePoint& TracePoint::attr(std::string_view key, const char* value) {
  return attr(key, std::string_view(value));
}

std::string json_quote(std::string_view raw) {
  std::string out = "\"";
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace bc::obs
