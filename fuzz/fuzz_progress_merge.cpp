// libFuzzer harness: campaign progress lines (campaign::ProgressMerger).
//
// campaign_watch tails the JSON Lines progress files of a running
// campaign, one per worker process, and folds them with ProgressMerger,
// whose lax probe reader sits beside the strict report reader. The first
// input byte picks 1-4 streams; the rest is cut into that many parts, and
// part j is stream j's bytes. Invariants:
//
//   - feeding every part in one chunk and byte by byte (streams in the same
//     order) gives equal snapshots: lines never tear at chunk boundaries;
//   - every merged Wilson bound lies in [0, 1], with low <= high;
//   - a line built by ProgressLine::encode() from the input's bytes reads
//     back its own counts (its scenario name, whatever its bytes, is one
//     row).
//
// Only a normal return is allowed: the merger throws nothing, and any
// sanitizer report or std::abort() from an invariant check is a finding.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "campaign/progress_merge.h"

namespace {

using namespace dnstime;
using campaign::ProgressLine;
using campaign::ProgressMerger;

bool same(double a, double b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

bool same(const ProgressMerger::Snapshot& a, const ProgressMerger::Snapshot& b) {
  if (a.rows.size() != b.rows.size() || a.campaign_done != b.campaign_done ||
      a.campaign_total != b.campaign_total || !same(a.elapsed_s, b.elapsed_s) ||
      !same(a.eta_s, b.eta_s) || a.lines != b.lines ||
      a.bad_lines != b.bad_lines) {
    return false;
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const ProgressMerger::MergedRow& x = a.rows[i];
    const ProgressMerger::MergedRow& y = b.rows[i];
    if (x.name != y.name || x.done != y.done || x.trials != y.trials ||
        x.successes != y.successes || !same(x.rate, y.rate) ||
        !same(x.wilson_low, y.wilson_low) ||
        !same(x.wilson_high, y.wilson_high)) {
      return false;
    }
  }
  return true;
}

/// Little-endian integer from `data[at, at + n)`, zero past the end.
u64 read_le(const uint8_t* data, size_t size, size_t at, size_t n) {
  u64 v = 0;
  for (size_t i = 0; i < n && at + i < size; ++i) {
    v |= u64{data[at + i]} << (8 * i);
  }
  return v;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const char* text = reinterpret_cast<const char*>(data) + 1;
  const size_t len = size - 1;
  const size_t streams = 1 + data[0] % 4;

  ProgressMerger whole;
  ProgressMerger bytewise;
  for (size_t j = 0; j < streams; ++j) {
    const size_t begin = len * j / streams;
    const size_t end = len * (j + 1) / streams;
    whole.feed(j, text + begin, end - begin);
    for (size_t i = begin; i < end; ++i) bytewise.feed(j, text + i, 1);
  }
  const ProgressMerger::Snapshot snap = whole.snapshot();
  if (!same(snap, bytewise.snapshot())) std::abort();
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    if (!(row.wilson_low >= 0.0 && row.wilson_low <= row.wilson_high &&
          row.wilson_high <= 1.0)) {
      std::abort();
    }
  }

  // Counts from the input's bytes; campaign counts kept within 2^53, the
  // largest a reader accepts.
  constexpr u64 kMaxCount = u64{1} << 53;
  ProgressLine line;
  line.trial.scenario.assign(text, std::min<size_t>(len, 64));
  line.trial.trial = static_cast<u32>(read_le(data, size, 1, 4));
  line.trial.success = (data[0] & 0x80) != 0;
  line.trial.done = static_cast<u32>(read_le(data, size, 5, 4));
  line.trial.trials = static_cast<u32>(read_le(data, size, 9, 4));
  line.trial.successes = static_cast<u32>(read_le(data, size, 13, 4));
  line.campaign.done = read_le(data, size, 17, 8) % (kMaxCount + 1);
  line.campaign.total = read_le(data, size, 25, 8) % (kMaxCount + 1);
  line.campaign.elapsed_s = static_cast<double>(read_le(data, size, 33, 2));
  const std::string encoded = line.encode();
  ProgressMerger back;
  back.feed(0, encoded.data(), encoded.size());
  const ProgressMerger::Snapshot read = back.snapshot();
  if (read.rows.size() != 1 || read.bad_lines != 0 ||
      read.rows[0].done != line.trial.done ||
      read.rows[0].trials != line.trial.trials ||
      read.rows[0].successes != line.trial.successes ||
      read.campaign_done != line.campaign.done ||
      read.campaign_total != line.campaign.total) {
    std::abort();
  }
  return 0;
}
