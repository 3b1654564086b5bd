// Parallel Monte Carlo campaign execution.
//
// A campaign = a set of scenarios x N independent trials each. Every trial
// builds its own World seeded by mix_seed(campaign seed, scenario name
// hash, trial index), so:
//   * trials share no state and can run on any worker thread;
//   * a trial's seed depends only on campaign seed + scenario + index,
//     never on scheduling, so reports are byte-identical at any thread
//     count (the determinism contract tests/campaign/ verifies);
//   * adding or reordering scenarios does not disturb other scenarios'
//     results.
//
// With CampaignConfig::journal_dir set, finished trials stream into the
// sharded on-disk journal (campaign/store/) instead of RAM: each worker
// appends to its own shard, aggregation is a streaming fold over the
// merged shards, and `resume` re-executes only the trials a previous
// (possibly killed) run did not journal.
//
// With CampaignConfig::workers >= 2 the workers are forked processes
// instead of threads, for crash isolation. Each child runs the same
// execute() loop as a one-thread pool, claims trials from a cursor in a
// shared anonymous page and journals into its own shard; the journal is
// the only channel back. A killed child strands at most its in-flight
// trial: once every child has exited the parent re-opens the journal
// (truncating torn tails) and forks a new round over what is still
// pending.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/report.h"
#include "campaign/scenario_spec.h"

namespace dnstime::campaign {

namespace store {
struct JournalMeta;
}  // namespace store

/// Which trials get a narrative dump (CampaignConfig::dump_on): kAuto =
/// error or deadline timeout, kAttackFailed = any unsuccessful trial.
enum class DumpOn { kAuto, kError, kTimeout, kAttackFailed, kAlways };

struct CampaignConfig {
  u64 seed = 0x5eed;
  /// Independent trials per scenario.
  u32 trials = 8;
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Capped at
  /// 1024 (and at the number of pending trials) by the runner.
  u32 threads = 0;
  /// >= 2: run the trials in this many forked worker processes instead of
  /// threads (`threads` is then unused). Requires journal_dir — run()
  /// throws std::invalid_argument without it — because the journal is the
  /// only channel results travel back by. Dumps and the trace are written
  /// by the child that runs the trial; progress_path names a directory
  /// holding one `worker-<shard>.jsonl` per child (an earlier run's
  /// `worker-*.jsonl` files there are removed first); the set_progress
  /// callback is not invoked. The calling process must be single-threaded
  /// when run() forks.
  u32 workers = 0;
  /// Non-empty: journal every finished TrialResult into shard files under
  /// this directory (created if absent) instead of holding them in memory.
  /// The returned report then carries aggregates only — its
  /// ScenarioAggregate::results vectors are empty, peak resident result
  /// storage is O(workers + scenarios) TrialResults (plus one 8-byte
  /// duration per successful trial, which the exact p50/p90 quantiles
  /// require), and store::read_report() rebuilds the full per-trial
  /// report from the shards.
  std::string journal_dir;
  /// With journal_dir: accept an existing journal in the directory.
  /// run() verifies it belongs to this campaign (same seed, trial count
  /// and scenario set), truncates any torn final record a crash left
  /// behind, and executes only the trials not yet journaled. Without
  /// resume, a journal directory that already contains shards is an error.
  bool resume = false;
  /// Non-empty: record a sim-time trace of one trial (selected by
  /// trace_index) and write it to this path as Chrome trace_event JSON
  /// once that trial finishes, from whichever worker ran it (a failed
  /// write is rethrown from run()). Tracing never perturbs results: the
  /// recorder observes sim time only, so the report stays byte-identical
  /// with or without it.
  std::string trace_path;
  /// Flattened index of the traced trial, scenario_index * trials +
  /// trial_index — deterministic regardless of which worker executes it.
  /// run() throws std::invalid_argument when it is out of range.
  u64 trace_index = 0;
  /// Non-empty: write an attack-narrative dump (obs::FlightRecorder
  /// to_json) into this directory (created if absent) for every trial
  /// matching dump_on, named `<scenario>-t<trial>.json` (non-filename
  /// characters in the scenario name become '_'). Dumps are a pure
  /// function of the trial seed, so they are byte-identical at any
  /// thread count.
  std::string dump_dir;
  /// Which trials to dump (used only with dump_dir).
  DumpOn dump_on = DumpOn::kAuto;
  /// Non-empty: stream live campaign progress to this file as JSON
  /// Lines, one line per finished trial (per-scenario done counts,
  /// success rate with a 95% Wilson interval, wall-clock ETA). The
  /// stream is for watching, not for records: line order and the ETA
  /// fields depend on scheduling and wall time, so it sits explicitly
  /// outside the byte-identity contract (the report itself is
  /// unaffected). Write failures after open are ignored.
  std::string progress_path;
  /// Test hook for the crash-recovery path: the worker process that
  /// claims this flattened trial index in the first round SIGKILLs itself
  /// before running it. run() throws std::invalid_argument when it is set
  /// with workers < 2.
  std::optional<u64> kill_trial;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config)
      : config_(std::move(config)) {}

  /// Called after each executed trial (from worker threads, serialised by
  /// an internal mutex; never with workers >= 2, whose trials run in child
  /// processes). For progress display; must not mutate the specs.
  /// The trial's result is stored — in its report slot or its journal
  /// shard — before the callback runs, so a throwing callback cannot lose
  /// it: the first exception a callback raises is rethrown from run()
  /// after all workers finish (remaining trials still execute; further
  /// progress notifications are suppressed). Resumed trials that were
  /// already journaled are skipped, not re-notified.
  using Progress =
      std::function<void(const ScenarioSpec&, const TrialResult&)>;
  void set_progress(Progress progress) { progress_ = std::move(progress); }

  /// Runs all trials of all scenarios across the worker pool and returns
  /// the aggregated report, scenarios in input order, trials in index
  /// order. A trial that throws is recorded as a failed trial with its
  /// exception text in TrialResult::error. Journal mode additionally
  /// throws std::runtime_error on journal mismatch (resuming a different
  /// campaign), a dirty non-resume directory, or shard I/O failure; with
  /// workers >= 2 also when a worker process exits non-zero or a round
  /// of them journals nothing.
  [[nodiscard]] CampaignReport run(
      const std::vector<ScenarioSpec>& scenarios) const;

  /// Seed of trial `trial` of `scenario` under campaign seed
  /// `campaign_seed` (exposed so tests and tools can replay one trial).
  [[nodiscard]] static u64 trial_seed(u64 campaign_seed,
                                      const ScenarioSpec& scenario,
                                      u32 trial);

  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  /// Sink invoked by execute() for every finished trial, from worker
  /// threads: (worker index, scenario index, trial index, result). Must
  /// durably store the result and return a reference to the stored copy
  /// (progress_ observes it); a throw aborts the campaign.
  using TrialSink = std::function<const TrialResult&(u32, std::size_t, u32,
                                                     TrialResult&&)>;
  /// The claim cursor execute()'s workers share (defined in runner.cpp).
  struct TrialCursor;

  [[nodiscard]] CampaignReport run_in_memory(
      const std::vector<ScenarioSpec>& scenarios) const;
  [[nodiscard]] CampaignReport run_journaled(
      const std::vector<ScenarioSpec>& scenarios) const;
  /// The workers >= 2 rounds of run_journaled; returns once the journal
  /// holds every trial.
  void run_worker_processes(const std::vector<ScenarioSpec>& scenarios,
                            const store::JournalMeta& meta,
                            std::vector<u8> skip, u32 next_shard) const;

  /// Fans the (non-skipped) trials out over `threads` workers, feeding
  /// every result to `sink` and then to progress_. `skip`, when non-null,
  /// flags already-done flattened (scenario * trials + trial) indices.
  void execute(const std::vector<ScenarioSpec>& scenarios,
               const std::vector<u8>* skip, u32 threads, TrialCursor& cursor,
               const TrialSink& sink) const;
  /// execute() with every result appended to the journal: worker `w`
  /// writes shard `first_shard + w`.
  void execute_journaled(const std::vector<ScenarioSpec>& scenarios,
                         const store::JournalMeta& meta,
                         const std::vector<u8>& skip, u32 threads,
                         TrialCursor& cursor, u32 first_shard) const;

  [[nodiscard]] u32 resolve_threads(std::size_t pending) const;

  CampaignConfig config_;
  Progress progress_;
};

}  // namespace dnstime::campaign
