#include "trace.h"

#include <fstream>

namespace perfbench {

Recorder::Recorder() : epoch_(Clock::now()) {}

std::size_t Recorder::open(std::string name, std::uint64_t request) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Recorder::close(std::size_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - epoch_)
                             .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Recorder::children_ms(std::size_t index) const {
  double total = 0.0;
  // Spans are stored in opening order, so the descendants of `index` are
  // the ones after it that open before it closes.
  for (std::size_t i = index + 1;
       i < spans_.size() && spans_[i].start_ns <= spans_[index].end_ns; ++i) {
    if (spans_[i].parent == static_cast<std::int64_t>(index)) {
      total += spans_[i].ms();
    }
  }
  return total;
}

double Recorder::self_ms(std::size_t index) const {
  return spans_[index].ms() - children_ms(index);
}

bool Recorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ms\": " << self_ms(i) << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void LayerTimes::add(const Recorder& recorder, std::size_t root) {
  std::map<std::string, double> totals;
  const auto& spans = recorder.spans();
  for (std::size_t i = root + 1;
       i < spans.size() && spans[i].start_ns <= spans[root].end_ns; ++i) {
    totals[spans[i].name] += spans[i].ms();
  }
  for (const auto& [name, ms] : totals) {
    std::vector<double>& v = ms_[name];
    v.resize(plans_, 0.0);
    v.push_back(ms);
  }
  ++plans_;
}

double LayerTimes::median_ms(const std::string& name) const {
  const auto it = ms_.find(name);
  if (it == ms_.end()) return 0.0;
  std::vector<double> v = it->second;
  v.resize(plans_, 0.0);
  return median(v);
}

}  // namespace perfbench
