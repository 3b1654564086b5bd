// Shared command-line parsing for campaign-driven binaries (benches and
// examples), so every tool accepts the same flags with the same error
// behaviour: unknown flags, missing values and malformed numbers are
// reported, not silently skipped or zeroed. Because journaling lives in
// CampaignConfig, --journal/--resume give every campaign tool
// crash-resumable persistence with no bespoke flag code.
#pragma once

#include <string>

#include "campaign/dist/options.h"
#include "campaign/runner.h"

namespace dnstime::campaign {

struct CliOptions {
  CampaignConfig config;
  std::string filter;  ///< scenario name prefix (tools define the default)
  std::string out;     ///< --out: report destination path ("" = stdout)
  bool json = false;
  bool metrics = false;  ///< --metrics: append process telemetry to report
  bool ok = true;  ///< false => a parse error was printed to stderr
  /// Multi-process distribution: --workers N plus the hidden --dist-*
  /// worker wiring and kill-injection flags (campaign/dist/options.h).
  /// Tools dispatch with dist.worker_mode -> dist::run_worker,
  /// dist.workers >= 2 -> dist::run_coordinator, else CampaignRunner.
  dist::DistOptions dist;
};

/// Parses the shared campaign flags: --trials N, --threads T, --seed S,
/// --journal DIR, --resume, --out PATH, --json, --metrics, --trace FILE,
/// --trace-index N, --dump DIR, --dump-on PRED, --progress FILE,
/// --workers N, --log-level LEVEL and (when `scenario_flags` is set)
/// --filter PREFIX.
/// --workers N (N >= 2) selects the multi-process coordinator; it
/// requires --journal and rejects --trace/--dump (trials execute in other
/// processes), and --threads is ignored (the process is the unit of
/// parallelism; workers run single-threaded). In distributed mode
/// --progress names a directory of per-process JSONL files, not a file.
/// The hidden worker/fault-injection flags (--dist-worker, --dist-fd-in,
/// --dist-fd-out, --dist-worker-id, --dist-kill-worker, --dist-kill-after)
/// land in CliOptions::dist; respawn_args records argv with --workers and
/// --dist-kill-* stripped so the coordinator can re-exec this binary as
/// workers.
/// `defaults` seeds the returned options. --dump/--dump-on/--progress
/// land in CampaignConfig::dump_dir/dump_on/progress_path (narrative
/// dumps and the live progress stream; see runner.h).
/// --log-level applies immediately (Logger::set_level); --trace/--trace-index
/// land in CampaignConfig::trace_path/trace_index. Numeric values must be
/// full unsigned-decimal tokens in range — garbage, trailing junk,
/// negatives and overflow are reported like unknown flags (never silently
/// parsed as 0), and --trials additionally rejects 0.
/// On any error, prints the problem and a usage line to stderr and
/// returns ok = false.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   CliOptions defaults,
                                   bool scenario_flags = false);

/// Strict unsigned-decimal token parse, the one every campaign flag and
/// tool argument goes through: a full run of digits in u64 range. Leading
/// whitespace, signs, trailing junk and overflow fail (std::strtoull alone
/// would accept them, and negatives would wrap). Leaves `out` untouched on
/// failure.
[[nodiscard]] bool parse_u64_token(const char* s, u64& out);

/// Writes the report — to_json() when opts.json, to_table() otherwise —
/// to opts.out, or stdout when opts.out is empty. Journaled campaigns
/// (config.journal_dir set) serialise aggregates only: the per-trial rows
/// live in the journal and store::read_report() rebuilds them. With
/// opts.metrics, a telemetry section (obs registry snapshot + process-wide
/// buffer-pool stats) is appended: a "metrics" key in JSON, a trailing
/// block in table form. Without it, output is byte-identical to what the
/// tool always produced. Returns false (with a message on stderr) on I/O
/// failure.
[[nodiscard]] bool write_report(const CliOptions& opts,
                                const CampaignReport& report);

}  // namespace dnstime::campaign
