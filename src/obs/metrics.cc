#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/trace.h"
#include "support/atomic_file.h"
#include "support/require.h"

namespace bc::obs {
namespace {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

// One interned metric. `offset` is the metric's first slot in a shard;
// counters and gauges use 1 slot, histograms use bounds.size() + 1.
struct MetricInfo {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint32_t offset = 0;
  std::uint32_t slot_count = 1;
  std::vector<double> bounds;
};

// Process-wide append-only intern table shared by every registry, so
// handles stay valid across registry swaps.
struct InternTable {
  std::mutex mu;
  std::vector<MetricInfo> metrics;
  std::unordered_map<std::string, std::uint32_t> by_name;
  std::uint32_t next_offset = 0;

  static InternTable& instance() {
    static InternTable* table = new InternTable();  // never destroyed
    return *table;
  }

  std::uint32_t intern(std::string_view name, Kind kind,
                       std::span<const double> bounds) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_name.find(std::string(name));
    if (it != by_name.end()) {
      const MetricInfo& info = metrics[it->second];
      support::require(info.kind == kind,
                       "metric re-interned with a different kind: " +
                           std::string(name));
      if (kind == Kind::kHistogram) {
        support::require(
            std::equal(info.bounds.begin(), info.bounds.end(), bounds.begin(),
                       bounds.end()),
            "histogram re-interned with different bounds: " +
                std::string(name));
      }
      return it->second;
    }
    MetricInfo info;
    info.name = std::string(name);
    info.kind = kind;
    info.offset = next_offset;
    info.bounds.assign(bounds.begin(), bounds.end());
    if (kind == Kind::kHistogram) {
      support::require(!bounds.empty(), "histogram needs at least one bound");
      support::require(std::is_sorted(bounds.begin(), bounds.end()),
                       "histogram bounds must be ascending");
      info.slot_count = static_cast<std::uint32_t>(bounds.size()) + 1;
    }
    next_offset += info.slot_count;
    const auto id = static_cast<std::uint32_t>(metrics.size());
    metrics.push_back(std::move(info));
    by_name.emplace(metrics.back().name, id);
    return id;
  }
};

// Registries get process-unique serials; the TLS shard cache is keyed by
// serial (not pointer) so a destroyed test registry whose address is
// reused can never produce a false cache hit.
std::atomic<std::uint64_t> g_registry_serial{0};

}  // namespace

struct MetricsRegistry::Impl {
  std::uint64_t serial = 0;
  std::mutex mu;  // guards shard registration only
  // Stable addresses: shards are heap slabs owned by the registry, kept
  // alive (and counted) even after their recording thread exits.
  std::vector<std::unique_ptr<std::vector<std::uint64_t>>> shards;
};

namespace {

struct ShardCacheEntry {
  std::uint64_t serial = 0;
  std::vector<std::uint64_t>* shard = nullptr;
};

// Small direct-mapped per-thread cache over (registry serial → shard).
// One entry suffices in practice (one registry active at a time); a few
// extra slots keep nested scoped registries cheap.
constexpr int kShardCacheSize = 4;
thread_local ShardCacheEntry t_shard_cache[kShardCacheSize];

MetricsRegistry* g_current = nullptr;

// Per-thread override (ScopedThreadMetrics); wins over g_current so a
// server worker's request registry captures everything the request
// records, while unrelated threads keep the process-wide registry.
thread_local MetricsRegistry* t_current = nullptr;

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {
  impl_->serial = 1 + g_registry_serial.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

std::uint64_t* MetricsRegistry::slots(std::uint32_t id) {
  const MetricInfo& info = InternTable::instance().metrics[id];
  const std::uint32_t needed = info.offset + info.slot_count;
  const int slot = static_cast<int>(impl_->serial % kShardCacheSize);
  ShardCacheEntry& entry = t_shard_cache[slot];
  if (entry.serial != impl_->serial) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shards.push_back(std::make_unique<std::vector<std::uint64_t>>());
    entry.serial = impl_->serial;
    entry.shard = impl_->shards.back().get();
  }
  if (entry.shard->size() < needed) entry.shard->resize(needed, 0);
  return entry.shard->data() + info.offset;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  InternTable& table = InternTable::instance();
  std::vector<MetricInfo> infos;
  {
    std::lock_guard<std::mutex> lock(table.mu);
    infos = table.metrics;
  }
  // Merge every shard in registration order. All merge operators are
  // commutative over integers, so the order is irrelevant to the result —
  // it is fixed anyway to keep the loop obviously deterministic.
  std::vector<std::uint64_t> merged;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& shard : impl_->shards) {
      if (shard->size() > merged.size()) merged.resize(shard->size(), 0);
      for (std::size_t i = 0; i < shard->size(); ++i) {
        merged[i] += (*shard)[i];
      }
    }
    // Gauge slots max-merge rather than sum: redo them precisely.
    for (const MetricInfo& info : infos) {
      if (info.kind != Kind::kGauge || info.offset >= merged.size()) continue;
      std::uint64_t mx = 0;
      for (const auto& shard : impl_->shards) {
        if (info.offset < shard->size()) {
          mx = std::max(mx, (*shard)[info.offset]);
        }
      }
      merged[info.offset] = mx;
    }
  }

  MetricsSnapshot snap;
  for (const MetricInfo& info : infos) {
    auto slot_value = [&](std::uint32_t i) -> std::uint64_t {
      const std::uint32_t at = info.offset + i;
      return at < merged.size() ? merged[at] : 0;
    };
    switch (info.kind) {
      case Kind::kCounter: {
        const std::uint64_t v = slot_value(0);
        if (v != 0) snap.counters.emplace_back(info.name, v);
        break;
      }
      case Kind::kGauge: {
        const std::uint64_t v = slot_value(0);
        if (v != 0) snap.gauges.emplace_back(info.name, v);
        break;
      }
      case Kind::kHistogram: {
        MetricsSnapshot::HistogramEntry entry;
        entry.name = info.name;
        entry.upper_bounds = info.bounds;
        entry.counts.resize(info.slot_count);
        for (std::uint32_t i = 0; i < info.slot_count; ++i) {
          entry.counts[i] = slot_value(i);
          entry.total += entry.counts[i];
        }
        if (entry.total != 0) snap.histograms.push_back(std::move(entry));
        break;
      }
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& shard : impl_->shards) {
    std::fill(shard->begin(), shard->end(), 0);
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry& metrics() {
  if (t_current != nullptr) return *t_current;
  return g_current != nullptr ? *g_current : global_metrics();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry& registry)
    : previous_(g_current) {
  g_current = &registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() { g_current = previous_; }

ScopedThreadMetrics::ScopedThreadMetrics(MetricsRegistry& registry)
    : previous_(t_current) {
  t_current = &registry;
}

ScopedThreadMetrics::~ScopedThreadMetrics() { t_current = previous_; }

Counter::Counter(std::string_view name)
    : id_(InternTable::instance().intern(name, Kind::kCounter, {})) {}

void Counter::add(std::uint64_t delta) const {
  if (delta == 0) return;
  metrics().slots(id_)[0] += delta;
}

Gauge::Gauge(std::string_view name)
    : id_(InternTable::instance().intern(name, Kind::kGauge, {})) {}

void Gauge::record(std::uint64_t value) const {
  std::uint64_t* slot = metrics().slots(id_);
  if (value > *slot) *slot = value;
}

Histogram::Histogram(std::string_view name,
                     std::span<const double> upper_bounds)
    : id_(InternTable::instance().intern(name, Kind::kHistogram,
                                         upper_bounds)) {}

void Histogram::observe(double value) const {
  const MetricInfo& info = InternTable::instance().metrics[id_];
  std::uint32_t bucket = static_cast<std::uint32_t>(info.bounds.size());
  for (std::uint32_t i = 0; i < info.bounds.size(); ++i) {
    if (value <= info.bounds[i]) {
      bucket = i;
      break;
    }
  }
  metrics().slots(id_)[bucket] += 1;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::uint64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json(const std::string& indent) const {
  const std::string pad1 = indent + "  ";
  const std::string pad2 = indent + "    ";
  std::string out = "{\n";
  out += pad1 + "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += pad2 + "\"" + counters[i].first +
           "\": " + std::to_string(counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n" + pad1 + "},\n";
  out += pad1 + "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += pad2 + "\"" + gauges[i].first +
           "\": " + std::to_string(gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n" + pad1 + "},\n";
  out += pad1 + "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    out += (i == 0 ? "\n" : ",\n");
    out += pad2 + "\"" + h.name + "\": {\"upper_bounds\": [";
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      if (b != 0) out += ", ";
      out += format_double(h.upper_bounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "], \"total\": " + std::to_string(h.total) + "}";
  }
  out += histograms.empty() ? "}\n" : "\n" + pad1 + "}\n";
  out += indent + "}";
  return out;
}

support::Expected<bool> write_metrics_json(const std::string& path,
                                           const MetricsSnapshot& snapshot) {
  std::string body = "{\n  \"schema\": \"bc-metrics\",\n  \"version\": 1,\n";
  body += "  \"metrics\": " + snapshot.to_json("  ") + "\n}\n";
  if (!support::write_file_atomic(path, body)) {
    return support::Fault{support::FaultKind::kInvalidInput,
                          "cannot write metrics file: " + path};
  }
  return true;
}

}  // namespace bc::obs
