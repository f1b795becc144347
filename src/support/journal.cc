#include "support/journal.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "support/atomic_file.h"
#include "support/require.h"

namespace bc::support {

namespace {

std::string crc_hex(std::string_view data) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08" PRIx32, crc32(data));
  return buf;
}

}  // namespace

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) out.push_back(std::move(token));
  return out;
}

bool is_clean_token(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\0') {
      return false;
    }
  }
  return true;
}

Expected<AppendJournal> AppendJournal::open(std::string path,
                                            JournalFormat format,
                                            JournalLimits limits) {
  AppendJournal journal(std::move(path), std::move(format), limits);
  if (journal.path_.empty()) return journal;
  // Reap temps abandoned by a writer that crashed between creating its
  // temp file and renaming it into place — the one failure mode where
  // write_file_atomic cannot clean up after itself.
  journal.stale_temps_removed_ = remove_stale_temps(journal.path_);
  if (!file_exists(journal.path_)) return journal;

  auto contents = read_file(journal.path_);
  if (!contents.has_value()) return contents.fault();

  std::istringstream in(contents.value());
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  bool torn_tail = false;
  while (std::getline(in, line)) {
    ++line_no;
    // getline only reports eof mid-line when the final line has no
    // trailing newline — the signature of a torn append.
    const bool is_final_torn = in.eof() && !contents.value().empty() &&
                               contents.value().back() != '\n';
    if (line.empty()) continue;
    if (!saw_header) {
      // A damaged header is never "just torn": our writers create the
      // file with an atomic compaction, so a file that exists but lacks
      // a valid first line was tampered with or belongs to someone else.
      if (journal.format_.validate_header) {
        auto verdict = journal.format_.validate_header(line, line_no);
        if (!verdict.has_value()) return verdict.fault();
      } else if (line != journal.format_.header_line) {
        return Fault{FaultKind::kInvalidInput,
                     "journal '" + journal.path_ +
                         "': missing or wrong header"};
      }
      saw_header = true;
      continue;
    }
    const std::vector<std::string> fields = tokens_of(line);
    std::string why;
    if (fields.size() != 4 || fields[0] != journal.format_.record_tag) {
      why = "malformed record";
    } else if (crc_hex(fields[2] + " " + fields[3]) != fields[1]) {
      why = "CRC mismatch for " + fields[2];
    }
    if (!why.empty()) {
      if (is_final_torn) {
        ++journal.torn_tails_dropped_;
        torn_tail = true;
        break;
      }
      if (journal.format_.record_fault) {
        return journal.format_.record_fault(line_no, why);
      }
      return Fault{FaultKind::kInvalidInput,
                   "journal '" + journal.path_ + "': line " +
                       std::to_string(line_no) + ": " + why};
    }
    journal.entries_[fields[2]] =
        Entry{fields[3], journal.next_seq_++};
  }
  journal.file_bytes_ = contents.value().size();
  // Appending is only safe onto a healthy tail under a real header.
  journal.append_ok_ = saw_header && !torn_tail;
  return journal;
}

bool AppendJournal::contains(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

const std::string* AppendJournal::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.payload;
}

void AppendJournal::put(const std::string& key, std::string payload) {
  require(is_clean_token(key), "journal key must be whitespace-free");
  require(is_clean_token(payload),
          "journal payload must be whitespace-free");
  entries_[key] = Entry{payload, next_seq_++};
  pending_.emplace_back(key, std::move(payload));
}

std::string AppendJournal::record_line(const std::string& key,
                                       const std::string& payload) const {
  const std::string body = key + " " + payload;
  std::string out = format_.record_tag;
  out += ' ';
  out += crc_hex(body);
  out += ' ';
  out += body;
  out += '\n';
  return out;
}

Expected<bool> AppendJournal::sync() {
  if (path_.empty()) {
    pending_.clear();
    return true;
  }
  const bool over_entries =
      limits_.max_entries != 0 && entries_.size() > limits_.max_entries;
  if (!append_ok_ || over_entries) return compact();
  if (pending_.empty()) return true;
  std::string delta;
  for (const auto& [key, payload] : pending_) {
    delta += record_line(key, payload);
  }
  if (file_bytes_ + delta.size() > limits_.compact_threshold_bytes) {
    return compact();
  }
  auto appended = append_file_durable(path_, delta);
  if (!appended.has_value()) {
    // The failed append may have persisted a prefix of `delta` — a torn
    // tail we must not append after (the next record would merge into
    // the partial line). Pending records are kept; the retry compacts.
    append_ok_ = false;
    return appended.fault();
  }
  file_bytes_ += delta.size();
  appended_records_ += pending_.size();
  pending_.clear();
  return true;
}

Expected<bool> AppendJournal::compact() {
  if (path_.empty()) {
    pending_.clear();
    return true;
  }
  while (limits_.max_entries != 0 && entries_.size() > limits_.max_entries) {
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.seq < oldest->second.seq) oldest = it;
    }
    entries_.erase(oldest);
    ++evictions_;
  }
  const std::string image = compacted_image();
  auto wrote = write_file_atomic(path_, image);
  if (!wrote.has_value()) {
    // Includes the crash-after-rename ambiguity: the file may or may
    // not hold `image` now. Staying in needs-compact mode makes the
    // retry idempotent — compacting the same entry set writes the same
    // bytes either way.
    append_ok_ = false;
    return wrote.fault();
  }
  pending_.clear();
  file_bytes_ = image.size();
  append_ok_ = true;
  ++compactions_;
  return true;
}

std::string AppendJournal::compacted_image() const {
  std::string out;
  out.reserve(format_.header_line.size() + 1 + entries_.size() * 96);
  out += format_.header_line;
  out += '\n';
  // std::map iterates key-sorted: the image depends only on the entry
  // set, never on insertion order, thread count, or resume history.
  for (const auto& [key, entry] : entries_) {
    out += record_line(key, entry.payload);
  }
  return out;
}

}  // namespace bc::support
