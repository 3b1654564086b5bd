#include "campaign/store/journal_reader.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

namespace dnstime::campaign::store {
namespace {

namespace fs = std::filesystem;

struct ParsedHeader {
  bool ok = false;
  JournalMeta meta;
  Bytes meta_bytes;
  u64 header_bytes = 0;
};

/// Reads and validates a shard header from the current file position.
/// Any short read, bad magic/version, CRC mismatch or undecodable meta
/// yields ok = false — the shard then contributes nothing, it is never a
/// hard error (a crash during shard creation can tear the header itself).
ParsedHeader read_header(std::FILE* f) {
  ParsedHeader h;
  u8 fixed[24];
  if (std::fread(fixed, 1, sizeof fixed, f) != sizeof fixed) return h;
  ByteReader r(std::span<const u8>(fixed, sizeof fixed));
  if (r.read_u64() != kMagic) return h;
  if (r.read_u32() != kVersion) return h;
  (void)r.read_u32();  // shard id: informational, the filename is canonical
  u32 meta_len = r.read_u32();
  u32 meta_crc = r.read_u32();
  if (meta_len == 0 || meta_len > kMaxRecordBytes) return h;
  h.meta_bytes.resize(meta_len);
  if (std::fread(h.meta_bytes.data(), 1, meta_len, f) != meta_len) return h;
  if (crc32(h.meta_bytes) != meta_crc) return h;
  try {
    ByteReader mr(h.meta_bytes);
    h.meta = JournalMeta::decode(mr);
    if (!mr.empty()) return h;
  } catch (const DecodeError&) {
    return h;
  }
  h.ok = true;
  h.header_bytes = sizeof fixed + meta_len;
  return h;
}

/// Reads the next framed record. Returns true and fills `out`/`frame_bytes`
/// on success; false on a torn or invalid frame (end of valid prefix).
bool read_record(std::FILE* f, DecodedRecord& out, u64& frame_bytes) {
  u8 hdr[8];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) return false;
  ByteReader hr(std::span<const u8>(hdr, sizeof hdr));
  u32 len = hr.read_u32();
  u32 crc = hr.read_u32();
  if (len == 0 || len > kMaxRecordBytes) return false;
  Bytes payload(len);
  if (std::fread(payload.data(), 1, len, f) != len) return false;
  if (crc32(payload) != crc) return false;
  try {
    ByteReader pr(payload);
    out = decode_record(pr);
    if (!pr.empty()) return false;
  } catch (const DecodeError&) {
    return false;
  }
  frame_bytes = sizeof hdr + len;
  return true;
}

std::unordered_map<u64, u32> hash_index(const JournalMeta& meta) {
  std::unordered_map<u64, u32> index;
  std::vector<u64> hashes = meta.name_hashes();
  index.reserve(hashes.size());
  for (u32 i = 0; i < hashes.size(); ++i) {
    if (!index.emplace(hashes[i], i).second) {
      throw std::runtime_error(
          "journal meta has colliding scenario name hashes");
    }
  }
  return index;
}

/// A shard that exists but cannot be opened is a hard error everywhere:
/// treating it like header-less crash debris would let read_report return
/// a silently incomplete campaign, and resume delete (then re-execute)
/// trials that are actually safe on disk.
FilePtr open_shard(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    throw std::runtime_error("cannot open journal shard '" + path +
                             "': " + std::strerror(errno));
  }
  return f;
}

u32 parse_shard_id(const std::string& path) {
  std::string name = fs::path(path).filename().string();
  std::string middle = name.substr(
      kShardPrefix.size(),
      name.size() - kShardPrefix.size() - kShardSuffix.size());
  u32 id = 0;
  for (char c : middle) {
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<u32>(c - '0');
  }
  return id;
}

struct LoadedShard {
  std::string path;
  FilePtr file;         ///< positioned after the header; null for debris
  ParsedHeader header;  ///< .ok == false for header-less debris
};

/// The discovery + identity-validation pass shared by scan_journal and
/// JournalMerge: opens every shard, keeps header-less debris as entries
/// with a null file, and verifies all valid headers describe one campaign
/// (the first valid shard is canonical; any disagreement throws).
struct LoadedJournal {
  bool found = false;
  JournalMeta meta;
  std::unordered_map<u64, u32> index;  ///< fnv1a(name) -> scenario index
  std::vector<LoadedShard> shards;     ///< sorted by path
};

LoadedJournal load_journal(const std::string& dir) {
  LoadedJournal journal;
  Bytes first_meta_bytes;
  for (const std::string& path : list_shards(dir)) {
    LoadedShard shard;
    shard.path = path;
    shard.file = open_shard(path);
    shard.header = read_header(shard.file.get());
    if (!shard.header.ok) {
      shard.file.reset();
    } else if (!journal.found) {
      journal.found = true;
      journal.meta = shard.header.meta;
      journal.index = hash_index(journal.meta);
      first_meta_bytes = shard.header.meta_bytes;
    } else if (shard.header.meta_bytes != first_meta_bytes) {
      throw std::runtime_error("journal shard '" + path +
                               "' belongs to a different campaign (seed, "
                               "trial count or scenario set mismatch)");
    }
    journal.shards.push_back(std::move(shard));
  }
  return journal;
}

}  // namespace

std::vector<std::string> list_shards(const std::string& dir) {
  std::vector<std::string> shards;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > kShardPrefix.size() + kShardSuffix.size() &&
        name.compare(0, kShardPrefix.size(), kShardPrefix) == 0 &&
        name.compare(name.size() - kShardSuffix.size(), kShardSuffix.size(),
                     kShardSuffix) == 0) {
      shards.push_back(entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

std::vector<TrialRange> pending_ranges(const JournalScan& scan,
                                       std::size_t num_scenarios, u32 trials) {
  const u64 total = static_cast<u64>(num_scenarios) * trials;
  std::vector<TrialRange> ranges;
  if (!scan.found) {
    if (total != 0) ranges.push_back({0, total});
    return ranges;
  }
  u64 open = 0;
  bool in_run = false;
  for (u64 idx = 0; idx < total; ++idx) {
    const std::size_t s = static_cast<std::size_t>(idx / trials);
    const u32 t = static_cast<u32>(idx % trials);
    const bool done = s < scan.done.size() && t < scan.done[s].size() &&
                      scan.done[s][t] != 0;
    if (!done && !in_run) {
      open = idx;
      in_run = true;
    } else if (done && in_run) {
      ranges.push_back({open, idx});
      in_run = false;
    }
  }
  if (in_run) ranges.push_back({open, total});
  return ranges;
}

JournalScan scan_journal(const std::string& dir) {
  JournalScan scan;
  LoadedJournal journal = load_journal(dir);
  scan.found = journal.found;
  scan.meta = journal.meta;
  if (scan.found) {
    scan.done.assign(scan.meta.scenarios.size(),
                     std::vector<u8>(scan.meta.trials_per_scenario, u8{0}));
  }
  const u32 trials = scan.meta.trials_per_scenario;
  for (LoadedShard& shard : journal.shards) {
    ShardState st;
    st.path = shard.path;
    st.shard_id = parse_shard_id(shard.path);
    std::error_code ec;
    st.file_bytes = fs::file_size(shard.path, ec);
    if (ec) st.file_bytes = 0;
    if (shard.header.ok) {
      st.header_ok = true;
      st.valid_bytes = shard.header.header_bytes;
      DecodedRecord rec;
      u64 frame_bytes = 0;
      while (read_record(shard.file.get(), rec, frame_bytes)) {
        auto it = journal.index.find(rec.name_hash);
        if (it == journal.index.end() || rec.result.trial >= trials) break;
        st.valid_bytes += frame_bytes;
        st.records++;
        u8& bit = scan.done[it->second][rec.result.trial];
        if (bit == 0) {
          bit = 1;
          scan.records++;
        }
      }
    }
    scan.shards.push_back(std::move(st));
  }
  return scan;
}

void truncate_torn_tails(const JournalScan& scan) {
  for (const ShardState& st : scan.shards) {
    std::error_code ec;
    if (!st.header_ok) {
      fs::remove(st.path, ec);
    } else if (st.valid_bytes < st.file_bytes) {
      fs::resize_file(st.path, st.valid_bytes, ec);
      if (ec) {
        throw std::runtime_error("cannot truncate torn journal shard '" +
                                 st.path + "': " + ec.message());
      }
    }
  }
}

struct JournalMerge::Cursor {
  std::string path;
  FilePtr file;  ///< RAII: a throwing constructor must not leak handles
  bool alive = false;  ///< rec/key hold the shard's current record
  bool dead = false;   ///< valid prefix exhausted, never read again
  u64 key = 0;
  bool has_prev = false;
  u64 prev_key = 0;
  JournalRecord rec;

  /// Loads the shard's next record into rec/key (alive = false at the end
  /// of the valid prefix). Throws if the shard violates the ascending-key
  /// ordering every writer produces.
  void advance(const std::unordered_map<u64, u32>& index, u32 trials) {
    alive = false;
    if (dead) return;
    DecodedRecord d;
    u64 frame_bytes = 0;
    if (!read_record(file.get(), d, frame_bytes)) {
      dead = true;
      return;
    }
    auto it = index.find(d.name_hash);
    if (it == index.end() || d.result.trial >= trials) {
      dead = true;
      return;
    }
    u64 next_key = static_cast<u64>(it->second) * trials + d.result.trial;
    if (has_prev && next_key <= prev_key) {
      throw std::runtime_error("journal shard '" + path +
                               "' has out-of-order or duplicate records");
    }
    has_prev = true;
    prev_key = next_key;
    key = next_key;
    rec.scenario = it->second;
    rec.result = std::move(d.result);
    alive = true;
  }
};

JournalMerge::JournalMerge(const std::string& dir) {
  LoadedJournal journal = load_journal(dir);
  valid_ = journal.found;
  meta_ = std::move(journal.meta);
  trials_ = meta_.trials_per_scenario;
  index_of_hash_ = std::move(journal.index);
  for (LoadedShard& shard : journal.shards) {
    if (!shard.header.ok) continue;
    Cursor c;
    c.path = std::move(shard.path);
    c.file = std::move(shard.file);
    cursors_.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < cursors_.size(); ++i) {
    cursors_[i].advance(index_of_hash_, trials_);
    if (cursors_[i].alive) heap_.emplace(cursors_[i].key, i);
  }
}

JournalMerge::~JournalMerge() = default;

bool JournalMerge::next(JournalRecord& out) {
  if (heap_.empty()) return false;
  const auto [key, best] = heap_.top();
  heap_.pop();
  out = std::move(cursors_[best].rec);
  // Advance every cursor sitting on this key — duplicates (an interrupted
  // resume re-journaling a trial) collapse to the first shard's copy —
  // then re-queue the survivors.
  for (std::size_t i = best;;) {
    cursors_[i].advance(index_of_hash_, trials_);
    if (cursors_[i].alive) heap_.emplace(cursors_[i].key, i);
    if (heap_.empty() || heap_.top().first != key) break;
    i = heap_.top().second;
    heap_.pop();
  }
  return true;
}

namespace {

/// The fold behind every journal report: one ScenarioAggregateBuilder per
/// scenario of `meta`, fed the merged records (none when `merge` is null).
CampaignReport fold_report(const JournalMeta& meta, JournalMerge* merge,
                           bool include_trials) {
  std::vector<ScenarioAggregateBuilder> builders;
  builders.reserve(meta.scenarios.size());
  for (const JournalMeta::Scenario& s : meta.scenarios) {
    builders.emplace_back(s.name, s.attack, include_trials);
  }
  JournalRecord rec;
  while (merge != nullptr && merge->next(rec)) {
    builders[rec.scenario].add(std::move(rec.result));
  }
  CampaignReport report;
  report.seed = meta.campaign_seed;
  report.trials_per_scenario = meta.trials_per_scenario;
  report.scenarios.reserve(builders.size());
  for (ScenarioAggregateBuilder& b : builders) {
    report.scenarios.push_back(std::move(b).finish());
  }
  return report;
}

}  // namespace

OpenedJournal open_journal(const std::string& dir, const JournalMeta& meta,
                           bool resume) {
  // Records are keyed by scenario-name hash, so duplicate names (legal
  // nowhere, but caught only lazily in memory) would make the journal
  // unreadable after hours of work instead of failing now.
  std::unordered_map<u64, const std::string*> names;
  names.reserve(meta.scenarios.size());
  for (const JournalMeta::Scenario& s : meta.scenarios) {
    auto [it, inserted] = names.emplace(fnv1a(s.name), &s.name);
    if (!inserted) {
      throw std::invalid_argument(
          "cannot journal campaign: scenario name '" + s.name +
          (*it->second == s.name
               ? "' is duplicated"
               : "' hash-collides with '" + *it->second + "'"));
    }
  }
  fs::create_directories(dir);

  const JournalScan scan = scan_journal(dir);
  if (!scan.shards.empty() && !resume) {
    throw std::runtime_error(
        "journal directory '" + dir +
        "' already contains shards; pass resume (--resume) to continue "
        "that campaign or point --journal at a fresh directory");
  }
  if (resume && scan.found) {
    if (scan.meta.campaign_seed != meta.campaign_seed) {
      throw std::runtime_error(
          "cannot resume: journal '" + dir + "' was written with seed " +
          std::to_string(scan.meta.campaign_seed) + ", this campaign uses " +
          std::to_string(meta.campaign_seed));
    }
    if (scan.meta.trials_per_scenario != meta.trials_per_scenario) {
      throw std::runtime_error(
          "cannot resume: journal '" + dir + "' ran " +
          std::to_string(scan.meta.trials_per_scenario) +
          " trials/scenario, this campaign runs " +
          std::to_string(meta.trials_per_scenario));
    }
    if (scan.meta.fingerprint() != meta.fingerprint()) {
      throw std::runtime_error("cannot resume: journal '" + dir +
                               "' describes a different scenario set");
    }
  }
  // Identity verified: make the journal physically clean before new
  // shards are appended.
  if (resume) truncate_torn_tails(scan);

  OpenedJournal opened;
  opened.pending = pending_ranges(scan, meta.scenarios.size(),
                                  meta.trials_per_scenario);
  for (const ShardState& st : scan.shards) {
    opened.next_shard_id = std::max(opened.next_shard_id, st.shard_id + 1);
  }
  return opened;
}

CampaignReport read_report(const std::string& dir, bool include_trials) {
  JournalMerge merge(dir);
  if (!merge.valid()) {
    throw std::runtime_error("no valid trial journal in '" + dir + "'");
  }
  return fold_report(merge.meta(), &merge, include_trials);
}

CampaignReport read_finished_report(const std::string& dir,
                                    const JournalMeta& meta) {
  // A campaign without trials journals nothing, so there is no shard to
  // read and nothing to be missing.
  if (meta.scenarios.empty() || meta.trials_per_scenario == 0) {
    return fold_report(meta, nullptr, /*include_trials=*/false);
  }
  CampaignReport report = read_report(dir, /*include_trials=*/false);
  for (const ScenarioAggregate& agg : report.scenarios) {
    if (agg.trials != meta.trials_per_scenario) {
      throw std::runtime_error(
          "journal '" + dir + "' is incomplete after the run: scenario '" +
          agg.name + "' has " + std::to_string(agg.trials) + " of " +
          std::to_string(meta.trials_per_scenario) + " trials");
    }
  }
  return report;
}

}  // namespace dnstime::campaign::store
