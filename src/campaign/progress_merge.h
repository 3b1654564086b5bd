// Campaign progress streams (JSON Lines): the line writer every campaign
// mode uses, and the merging reader campaign_watch folds them with.
//
// A threads campaign writes one --progress file; a --workers campaign
// writes a directory with one worker-<shard>.jsonl per worker process, in
// the same line shape. ProgressMerger folds any number of such streams
// into one view: per-scenario counts are summed across files and the
// success rate and Wilson interval are recomputed from the sums, so the
// merged table is exactly what a single-process run over the same trials
// would show.
//
// Each stream is fed in arbitrary chunks (tail -f style); bytes after the
// last newline are carried per file until their line completes, so
// interleaved partial reads never produce torn lines.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace dnstime::campaign {

/// One progress line: a finished trial plus the campaign-wide counts.
/// Keys always appear in the order encode() writes them.
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
  /// Campaign-wide counts (shared by every worker, thread or process) and
  /// wall seconds since the writer started.
  struct Campaign {
    u64 done = 0;
    u64 total = 0;
    double elapsed_s = 0.0;
  };
  Trial trial;
  Campaign campaign;

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
    /// The four campaign-level facts all come from the line with the
    /// largest campaign_done seen (streams race each other).
    u64 campaign_done = 0;
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
