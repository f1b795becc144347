// Shared crash-safe, self-healing append journal.
//
// The plan cache (service/plan_cache) and the checkpoint journal
// (sim/checkpoint) started as two copies of the same design: one CRC'd
// whitespace-free record per line under a header line, rewritten in full
// through support::write_file_atomic on every flush. Full rewrites are
// crash-atomic but O(entries) per flush — a daemon journaling its
// millionth cached plan rewrote the other 999,999 every time — and both
// files grew without bound. This class is the shared engine with two
// upgrades:
//
//   * Append-mode sync: new records are appended + fsynced (O(delta)).
//     A crash can tear at most the final line; open() drops a torn tail
//     (a file that does not end in '\n'), schedules a compaction, and
//     keeps every complete record. A complete-but-corrupt record is a
//     structured fault — recompute beats replaying garbage.
//   * Size-triggered self-healing compaction: when the file would grow
//     past `compact_threshold_bytes` (or `max_entries` is exceeded, or
//     a failed append left the tail in doubt), sync() falls back to a
//     full key-sorted atomic rewrite. Compacted bytes are a pure
//     function of the live entry set — independent of insertion order,
//     thread count, and crash/resume history.
//
// Every I/O this class performs goes through support/atomic_file and is
// therefore fault-injectable via support/iofault: the chaos suite sweeps
// ENOSPC/EIO/short-write/fsync-fail/torn-rename over every fault point
// and asserts recovery-or-structured-error, never accepted corruption.
//
// On-disk format (unchanged from v1 of both consumers):
//
//   <header line>
//   <tag> <crc32hex> <key> <payload>
//
// with CRC-32 (IEEE) over "<key> <payload>". Duplicate keys are legal
// on disk (append-mode updates); readers apply last-write-wins.

#ifndef BUNDLECHARGE_SUPPORT_JOURNAL_H_
#define BUNDLECHARGE_SUPPORT_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/expected.h"

namespace bc::support {

// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokens_of(const std::string& line);

// True when `s` is non-empty and holds no space, tab, newline, carriage
// return or NUL — safe as one field of a journal record line.
bool is_clean_token(const std::string& s);

// Consumer-specific formatting: the header line written on compaction,
// the record tag ("entry", "cell"), and fault construction so each
// consumer keeps its historical error messages.
struct JournalFormat {
  std::string header_line;
  std::string record_tag;
  // Validates a header line read from disk; a fault aborts open(). When
  // unset, the line must equal `header_line` exactly.
  std::function<Expected<bool>(const std::string& line, std::size_t line_no)>
      validate_header;
  // Builds the fault for a complete-but-corrupt record. `why` is
  // "malformed record" or "CRC mismatch for <key>". When unset, a
  // generic kInvalidInput fault names the path and line.
  std::function<Fault(std::size_t line_no, const std::string& why)>
      record_fault;
};

struct JournalLimits {
  // Maximum live entries; 0 = unbounded. Enforced at compaction by
  // deterministic FIFO eviction (oldest insertion sequence first; a
  // re-put refreshes an entry's sequence).
  std::size_t max_entries = 0;
  // sync() compacts instead of appending when the file would exceed
  // this many bytes.
  std::size_t compact_threshold_bytes = 1u << 20;
};

class AppendJournal {
 public:
  // Opens `path`, creating an empty journal when the file does not
  // exist (an empty path is purely in-memory; sync is a no-op). Also
  // garbage-collects `<path>.tmp.*` temps left by a crashed writer. A
  // missing/blank file is fresh; a torn final line is dropped; any
  // other damage is a structured fault.
  static Expected<AppendJournal> open(std::string path, JournalFormat format,
                                      JournalLimits limits = {});

  const std::string& path() const { return path_; }
  std::size_t size() const { return entries_.size(); }
  bool contains(const std::string& key) const;
  // Payload for `key`, or nullptr when absent.
  const std::string* lookup(const std::string& key) const;

  // Records an entry in memory (last write wins); persisted by the next
  // sync(). Preconditions: key and payload non-empty, whitespace-free.
  void put(const std::string& key, std::string payload);

  // Persists everything put() since the last successful sync. Appends
  // when the on-disk tail is known-good and under the size threshold;
  // compacts otherwise. On failure the pending records are retained, so
  // a later sync retries them — and always retries via compaction,
  // because a failed append may have left a torn tail.
  Expected<bool> sync();

  // Full atomic rewrite: header + live entries, key-sorted, after FIFO
  // eviction down to max_entries. The resulting bytes are exactly
  // compacted_image() — a pure function of the surviving entry set.
  Expected<bool> compact();

  // The bytes compact() writes for the current entry set (pre-eviction).
  std::string compacted_image() const;

  // Robustness telemetry since open().
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t appended_records() const { return appended_records_; }
  std::uint64_t stale_temps_removed() const { return stale_temps_removed_; }
  std::uint64_t torn_tails_dropped() const { return torn_tails_dropped_; }

 private:
  AppendJournal(std::string path, JournalFormat format, JournalLimits limits)
      : path_(std::move(path)),
        format_(std::move(format)),
        limits_(limits) {}

  struct Entry {
    std::string payload;
    std::uint64_t seq = 0;  // insertion order, for FIFO eviction
  };

  std::string record_line(const std::string& key,
                          const std::string& payload) const;

  std::string path_;
  JournalFormat format_;
  JournalLimits limits_;
  std::map<std::string, Entry> entries_;
  // Records put() since the last successful sync, in put order.
  std::vector<std::pair<std::string, std::string>> pending_;
  std::uint64_t next_seq_ = 0;
  std::size_t file_bytes_ = 0;
  // False until the on-disk tail is known to end at a record boundary
  // under a valid header — a fresh file, a dropped torn tail, or any
  // failed append all force the next sync through compact().
  bool append_ok_ = false;
  std::uint64_t compactions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t stale_temps_removed_ = 0;
  std::uint64_t torn_tails_dropped_ = 0;
};

}  // namespace bc::support

#endif  // BUNDLECHARGE_SUPPORT_JOURNAL_H_
