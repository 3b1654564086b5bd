// Reading side of the sharded trial journal: directory scans for resume,
// torn-tail truncation, the checks every campaign mode runs before it
// journals (open_journal), a streaming k-way merge back into trial-index
// order, and full CampaignReport reconstruction.
//
// Tolerance contract: a shard's valid prefix ends at the first frame that
// is short, oversized, CRC-mismatched or undecodable — everything after a
// crash's torn final write is treated as never journaled and simply re-run
// on resume. A shard whose header itself is torn contributes nothing (and
// is deleted by truncate_torn_tails). Two conditions are hard errors, not
// tolerance cases: a shard whose header decodes to a *different* campaign
// (seed, trials or scenario set — resuming must never silently mix
// campaigns), and a shard file that exists but cannot be opened (its
// contents are unknown, so skipping it would fabricate an incomplete
// campaign or let resume destroy and re-run safe trials).
#pragma once

#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/report.h"
#include "campaign/store/journal.h"

namespace dnstime::campaign::store {

struct ShardState {
  std::string path;
  u32 shard_id = 0;      ///< parsed from the filename
  bool header_ok = false;
  u64 valid_bytes = 0;   ///< header + every valid frame
  u64 file_bytes = 0;    ///< actual size; > valid_bytes means a torn tail
  u64 records = 0;
};

struct JournalScan {
  bool found = false;  ///< at least one shard with a valid header
  JournalMeta meta;    ///< identity shared by all shards (when found)
  std::vector<ShardState> shards;  ///< sorted by filename
  /// done[scenario][trial] != 0 iff a valid record exists for that pair.
  std::vector<std::vector<u8>> done;
  u64 records = 0;  ///< distinct (scenario, trial) pairs journaled
};

/// Shard files under `dir`, sorted by name ([] if the directory is absent).
[[nodiscard]] std::vector<std::string> list_shards(const std::string& dir);

/// Half-open range of flattened trial indices
/// (scenario_index * trials + trial_index).
struct TrialRange {
  u64 begin = 0;
  u64 end = 0;  ///< exclusive
  [[nodiscard]] u64 size() const { return end - begin; }
  bool operator==(const TrialRange&) const = default;
};

/// The maximal runs of flattened indices NOT yet journaled, ascending —
/// what a (resumed) campaign and each round of worker processes still
/// owe. `num_scenarios`/`trials` describe
/// the campaign being (re)run; scan.done is consulted when the scan found
/// shards (a fresh directory yields one range covering everything).
[[nodiscard]] std::vector<TrialRange> pending_ranges(const JournalScan& scan,
                                                     std::size_t num_scenarios,
                                                     u32 trials);

/// Walks every shard's valid prefix and marks journaled trials. Throws
/// std::runtime_error if shards disagree on the campaign identity.
[[nodiscard]] JournalScan scan_journal(const std::string& dir);

/// Makes the scanned journal physically clean: shards with torn tails are
/// truncated to their last valid frame, header-less shards are removed.
/// Called by open_journal before resuming (readers tolerate torn tails
/// anyway; truncation keeps crash debris from accumulating).
void truncate_torn_tails(const JournalScan& scan);

/// Where a campaign starts journaling after open_journal.
struct OpenedJournal {
  std::vector<TrialRange> pending;  ///< trials still to run, ascending
  u32 next_shard_id = 0;            ///< lowest id no existing shard uses
};

/// Readies `dir` (created if absent) to journal the campaign `meta`
/// describes, before any trial of any campaign mode runs (and again after
/// each round of worker processes). Throws std::invalid_argument when two scenario names share
/// an FNV-1a hash (their records could not be told apart), and
/// std::runtime_error when `dir` already holds shards but `resume` is
/// false, or when `resume` finds a journal of another seed, trial count or
/// scenario set. With `resume`, torn tails and header-less debris are
/// cleaned up (truncate_torn_tails) and `pending` holds only the trials
/// the journal lacks.
[[nodiscard]] OpenedJournal open_journal(const std::string& dir,
                                         const JournalMeta& meta,
                                         bool resume);

/// Streaming merge of all shards into global trial order (scenario index,
/// then trial index). Holds O(shards) records in memory. Duplicate
/// (scenario, trial) keys — e.g. from an interrupted resume — yield the
/// copy from the lexicographically first shard. Within one shard, keys
/// must be strictly ascending (the order every writer produces); a
/// violation throws std::runtime_error.
class JournalMerge {
 public:
  explicit JournalMerge(const std::string& dir);
  ~JournalMerge();
  JournalMerge(const JournalMerge&) = delete;
  JournalMerge& operator=(const JournalMerge&) = delete;

  /// False if no shard had a valid header (meta() is then meaningless).
  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] const JournalMeta& meta() const { return meta_; }

  /// Fills `out` with the next record in global trial order; false at end.
  bool next(JournalRecord& out);

 private:
  struct Cursor;
  std::vector<Cursor> cursors_;
  /// Min-heap of (current key, cursor index): next() is O(log shards) per
  /// record. Ties order by cursor index, i.e. lexicographically first
  /// shard wins — the deterministic duplicate-collapse rule.
  std::priority_queue<std::pair<u64, std::size_t>,
                      std::vector<std::pair<u64, std::size_t>>,
                      std::greater<>>
      heap_;
  JournalMeta meta_;
  std::unordered_map<u64, u32> index_of_hash_;
  bool valid_ = false;
  u32 trials_ = 0;
};

/// Rebuilds the CampaignReport from a journal via the same streaming
/// ScenarioAggregateBuilder fold the runner uses, so a report read back
/// from shards is byte-identical to the in-memory one. With
/// `include_trials` the per-trial results are materialised too (O(total
/// trials) memory — this is the post-hoc analysis path, not the runner's).
/// Throws std::runtime_error if `dir` holds no valid journal.
[[nodiscard]] CampaignReport read_report(const std::string& dir,
                                         bool include_trials = true);

/// The aggregates-only report of the campaign `meta` describes, once it
/// has finished journaling into `dir`: read_report's fold, checked to hold
/// every trial of every scenario (the journal, not the executor's
/// accounting, is the ground truth). Throws std::runtime_error when a
/// trial is missing.
[[nodiscard]] CampaignReport read_finished_report(const std::string& dir,
                                                  const JournalMeta& meta);

}  // namespace dnstime::campaign::store
