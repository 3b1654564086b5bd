// Campaign progress streams (JSON Lines): the line writer every campaign
// mode uses, and the merging reader campaign_watch folds them with.
//
// A single-process campaign writes one --progress file; a distributed one
// writes a directory: worker-<id>.jsonl per process (per-scenario counts,
// no campaign_* fields) plus coordinator.jsonl (campaign-level lines
// only). ProgressMerger folds any number of such streams into one fleet
// view: per-scenario counts are summed across files and the success rate
// and Wilson interval are recomputed from the sums, so the merged table
// is exactly what a single-process run over the same trials would show.
//
// Each stream is fed in arbitrary chunks (tail -f style); bytes after the
// last newline are carried per file until their line completes, so
// interleaved partial reads never produce torn lines.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace dnstime::campaign {

/// One progress line. Which parts are set picks the line's shape: the
/// single-process runner writes trial + campaign, a dist worker trial +
/// worker, the dist coordinator campaign only. Keys always appear in the
/// order encode() writes them.
struct ProgressLine {
  /// One finished trial and its scenario's running counts (which include
  /// it); encode() derives the rate and Wilson interval from the counts.
  struct Trial {
    std::string scenario;
    u32 trial = 0;
    bool success = false;
    u32 done = 0;
    u32 trials = 0;  ///< the scenario's trial target
    u32 successes = 0;
  };
  /// Campaign-wide counts and wall seconds since the campaign started.
  struct Campaign {
    u64 done = 0;
    u64 total = 0;
    double elapsed_s = 0.0;
  };
  std::optional<Trial> trial;
  std::optional<Campaign> campaign;
  std::optional<u32> worker;

  [[nodiscard]] std::string encode() const;  ///< includes trailing '\n'
};

class ProgressMerger {
 public:
  /// Appends a chunk of stream `file_id` (any stable small integer; the
  /// watcher uses the file's discovery index). Complete lines are folded
  /// immediately, the tail is buffered.
  void feed(std::size_t file_id, const char* data, std::size_t len);

  struct MergedRow {
    std::string name;
    u64 done = 0;
    u64 trials = 0;  ///< per-scenario target (same in every stream)
    u64 successes = 0;
    double rate = 0.0;
    double wilson_low = 0.0;
    double wilson_high = 1.0;
  };

  struct Snapshot {
    std::vector<MergedRow> rows;  ///< first-seen order across all streams
    u64 campaign_done = 0;   ///< newest campaign-level line wins
    u64 campaign_total = 0;
    double elapsed_s = 0.0;
    double eta_s = 0.0;
    u64 lines = 0;
    u64 bad_lines = 0;
  };

  /// The current merged view. Rates/intervals are recomputed from the
  /// summed counts, not averaged from per-stream values.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  void fold_line(std::size_t file_id, const std::string& line);

  /// Latest per-scenario counters one stream reported (cumulative within
  /// the stream, so "latest" is also "largest").
  struct Cell {
    u64 done = 0;
    u64 successes = 0;
  };
  struct Stream {
    std::string carry;  ///< bytes after the last newline
    std::vector<Cell> cells;  ///< by scenario index
  };

  std::vector<std::string> names_;  ///< scenario index -> name
  std::vector<u64> trials_;         ///< scenario index -> trials target
  std::unordered_map<std::string, std::size_t> index_;
  std::map<std::size_t, Stream> streams_;  ///< ordered: deterministic sums
  u64 campaign_done_ = 0;
  u64 campaign_total_ = 0;
  double elapsed_s_ = 0.0;
  double eta_s_ = 0.0;
  u64 lines_ = 0;
  u64 bad_lines_ = 0;
};

}  // namespace dnstime::campaign
