#include "sim/checkpoint.h"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"
#include "support/atomic_file.h"
#include "support/require.h"

namespace bc::sim {

namespace {

using support::Expected;
using support::Fault;
using support::FaultKind;
using support::is_clean_token;
using support::tokens_of;

constexpr std::string_view kMagic = "bundlecharge-checkpoint";
constexpr std::string_view kVersion = "v1";

Fault corrupt(const std::string& path, std::size_t line_no,
              const std::string& why) {
  return Fault{FaultKind::kInvalidInput,
               path + ":" + std::to_string(line_no) +
                   ": corrupt checkpoint (" + why + ")"};
}

}  // namespace

Expected<CheckpointJournal> CheckpointJournal::open(std::string path,
                                                    std::string sweep_id,
                                                    CheckpointLimits limits) {
  support::require(is_clean_token(sweep_id),
                   "sweep id must be a non-empty whitespace-free token");
  support::JournalFormat format;
  format.header_line = std::string(kMagic);
  format.header_line += ' ';
  format.header_line += kVersion;
  format.header_line += ' ';
  format.header_line += sweep_id;
  format.record_tag = "cell";
  const std::string path_copy = path;
  const std::string sweep_copy = sweep_id;
  format.validate_header =
      [path_copy, sweep_copy](const std::string& line,
                              std::size_t line_no) -> Expected<bool> {
    const std::vector<std::string> fields = tokens_of(line);
    if (fields.size() != 3 || fields[0] != kMagic) {
      return corrupt(path_copy, line_no, "missing header");
    }
    if (fields[1] != kVersion) {
      return corrupt(path_copy, line_no, "unsupported version " + fields[1]);
    }
    if (fields[2] != sweep_copy) {
      return Fault{FaultKind::kInvalidInput,
                   path_copy + ": sweep id mismatch (journal " + fields[2] +
                       ", caller " + sweep_copy +
                       ") — refusing to mix sweeps"};
    }
    return true;
  };
  format.record_fault = [path_copy](std::size_t line_no,
                                    const std::string& why) {
    return corrupt(path_copy, line_no, why);
  };
  support::JournalLimits journal_limits;
  journal_limits.compact_threshold_bytes = limits.compact_threshold_bytes;
  auto journal = support::AppendJournal::open(std::move(path),
                                              std::move(format),
                                              journal_limits);
  if (!journal.has_value()) return journal.fault();
  return CheckpointJournal(std::move(journal.value()), std::move(sweep_id));
}

bool CheckpointJournal::contains(const std::string& key) const {
  return journal_.contains(key);
}

const std::string* CheckpointJournal::lookup(const std::string& key) const {
  return journal_.lookup(key);
}

void CheckpointJournal::record(const std::string& key,
                               const std::string& payload) {
  support::require(is_clean_token(key), "cell key must be whitespace-free");
  support::require(is_clean_token(payload),
                   "cell payload must be whitespace-free");
  journal_.put(key, payload);
}

void CheckpointJournal::publish_telemetry() {
  static const obs::Counter compactions("sim.checkpoint.compactions");
  if (journal_.compactions() > reported_compactions_) {
    compactions.add(journal_.compactions() - reported_compactions_);
    reported_compactions_ = journal_.compactions();
  }
}

Expected<bool> CheckpointJournal::flush() {
  auto synced = journal_.sync();
  publish_telemetry();
  return synced;
}

Expected<bool> CheckpointJournal::compact() {
  auto compacted = journal_.compact();
  publish_telemetry();
  return compacted;
}

std::string encode_metrics(const PlanMetrics& metrics) {
  char buf[352];
  std::snprintf(buf, sizeof(buf), "%zu,%a,%a,%a,%a,%a,%a,%a,%a,%a",
                metrics.num_stops, metrics.tour_length_m,
                metrics.move_energy_j, metrics.move_time_s,
                metrics.charge_time_s, metrics.charge_energy_j,
                metrics.total_energy_j, metrics.total_time_s,
                metrics.avg_charge_time_per_sensor_s,
                metrics.min_demand_fraction);
  return buf;
}

Expected<PlanMetrics> decode_metrics(const std::string& payload) {
  PlanMetrics m;
  const int fields = std::sscanf(
      payload.c_str(), "%zu,%la,%la,%la,%la,%la,%la,%la,%la,%la",
      &m.num_stops, &m.tour_length_m, &m.move_energy_j, &m.move_time_s,
      &m.charge_time_s, &m.charge_energy_j, &m.total_energy_j,
      &m.total_time_s, &m.avg_charge_time_per_sensor_s,
      &m.min_demand_fraction);
  if (fields != 10) {
    return Fault{FaultKind::kInvalidInput,
                 "malformed metrics payload (" + std::to_string(fields) +
                     "/10 fields): " + payload};
  }
  return m;
}

std::string cell_key(const std::string& prefix, std::size_t run) {
  support::require(is_clean_token(prefix),
                   "cell prefix must be whitespace-free");
  return prefix + ":run=" + std::to_string(run);
}

}  // namespace bc::sim
