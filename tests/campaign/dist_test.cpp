// The --workers layer's contracts:
//   1. pending_ranges turns any journal scan into the exact set of trials a
//      (re)started campaign still owes;
//   2. degraded journals — header-only shards, a shard missing entirely,
//      duplicated trials across shards, a parent killed mid-campaign —
//      merge into reports byte-identical to an uninterrupted
//      single-process run;
//   3. the worker-process runner (CampaignConfig::workers, which forks this
//      test binary) recovers a killed child with a second round, fails
//      instead of looping when a round journals nothing, fails when a
//      child exits non-zero, writes the same dumps and trace as threads,
//      and refuses a journal it must not touch before forking;
//   4. ProgressMerger folds interleaved multi-process progress streams
//      without tearing lines split across reads.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/progress_merge.h"
#include "campaign/runner.h"
#include "campaign/store/journal.h"
#include "campaign/store/journal_reader.h"
#include "campaign/store/shard_writer.h"
#include "campaign/trial.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/provenance.h"

namespace dnstime::campaign {
namespace {

namespace fs = std::filesystem;
using store::TrialRange;

struct TempJournalDir {
  explicit TempJournalDir(const std::string& tag)
      : path((fs::path(::testing::TempDir()) / ("dnstime_dist_" + tag))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempJournalDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Same cheap deterministic scenario the journal tests use.
ScenarioSpec synthetic_scenario(std::string name) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&, const TrialContext& ctx) {
    Rng rng{ctx.seed};
    TrialResult r;
    r.metric = rng.uniform01();
    r.duration_s = 60.0 + 540.0 * rng.uniform01();
    r.success = rng.chance(0.8);
    r.clock_shift_s = r.success ? -500.0 : 0.0;
    r.fragments_planted = rng.uniform(0, 30);
    return r;
  };
  return spec;
}

std::vector<ScenarioSpec> two_synthetic_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back(synthetic_scenario("synthetic/a"));
  scenarios.push_back(synthetic_scenario("synthetic/b"));
  return scenarios;
}

store::JournalMeta meta_for(const CampaignConfig& config,
                            const std::vector<ScenarioSpec>& scenarios) {
  return store::JournalMeta::describe(config.seed, config.trials, scenarios);
}

/// Executes flattened trial `idx` exactly the way a campaign worker does
/// and appends it to `writer` — the building block for simulating partial
/// campaigns without forking.
void execute_into(store::ShardWriter& writer,
                  const std::vector<ScenarioSpec>& scenarios, u64 seed,
                  u32 trials, u64 idx) {
  const auto scenario_idx = static_cast<u32>(idx / trials);
  obs::FlightRecorder flight;
  writer.append(scenario_idx,
                execute_trial(scenarios[scenario_idx], seed,
                              static_cast<u32>(idx % trials), flight));
}

// --- pending_ranges ---------------------------------------------------------

TEST(PendingRanges, FreshJournalIsOneRangeCoveringEverything) {
  store::JournalScan scan;  // found == false
  const auto ranges = store::pending_ranges(scan, 3, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (TrialRange{0, 24}));
}

TEST(PendingRanges, HolesBecomeMaximalAscendingRuns) {
  store::JournalScan scan;
  scan.found = true;
  // 2 scenarios x 4 trials; done: s0 = {t1, t2}, s1 = {t0}.
  scan.done = {{0, 1, 1, 0}, {1, 0, 0, 0}};
  const auto ranges = store::pending_ranges(scan, 2, 4);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (TrialRange{0, 1}));  // s0 t0
  EXPECT_EQ(ranges[1], (TrialRange{3, 4}));  // s0 t3
  EXPECT_EQ(ranges[2], (TrialRange{5, 8}));  // s1 t1..t3
}

TEST(PendingRanges, CompleteJournalYieldsNothing) {
  store::JournalScan scan;
  scan.found = true;
  scan.done = {{1, 1}, {1, 1}};
  EXPECT_TRUE(store::pending_ranges(scan, 2, 2).empty());
}

// --- degraded journal merges ------------------------------------------------

TEST(DistJournal, HeaderOnlyShardContributesNothingAndBreaksNothing) {
  TempJournalDir dir("headeronly");
  auto scenarios = two_synthetic_scenarios();
  const u32 trials = 4;
  store::JournalMeta meta = store::JournalMeta::describe(11, trials, scenarios);

  // A complete shard 0, plus shard 1 cut back to exactly its header — the
  // on-disk state of a worker killed after opening its shard but before
  // flushing any frame. Header size is recovered from two writers whose
  // record payloads are identical.
  {
    store::ShardWriter w(dir.path, meta, 0);
    for (u64 idx = 0; idx < 2 * trials; ++idx) {
      execute_into(w, scenarios, 11, trials, idx);
    }
    w.close();
  }
  u64 header_bytes = 0;
  {
    TrialResult fixed;
    fixed.trial = 0;
    store::ShardWriter one(dir.path, meta, 1);
    one.append(0, fixed);
    const u64 header_plus_frame = one.bytes_written();
    one.append(0, fixed);
    header_bytes = 2 * header_plus_frame - one.bytes_written();
    one.close();
  }
  fs::resize_file(dir.path + "/" + store::shard_filename(1), header_bytes);

  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_TRUE(scan.found);
  EXPECT_EQ(scan.records, u64{2} * trials);  // shard 1 adds nothing
  EXPECT_TRUE(store::pending_ranges(scan, scenarios.size(), trials).empty());

  store::JournalMerge merge(dir.path);
  ASSERT_TRUE(merge.valid());
  store::JournalRecord rec;
  u64 n = 0;
  while (merge.next(rec)) n++;
  EXPECT_EQ(n, u64{2} * trials);
}

TEST(DistJournal, MissingWorkerShardResumesIntoIdenticalReport) {
  TempJournalDir dir("missing");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config;
  config.seed = 77;
  config.trials = 6;
  config.threads = 1;
  const CampaignReport baseline = CampaignRunner(config).run(scenarios);

  // Workers 0 and 2 flushed their shards; worker 1 (which ran [4, 8)) died
  // before writing anything — its shard simply does not exist.
  {
    store::ShardWriter w0(dir.path, meta_for(config, scenarios), 0);
    store::ShardWriter w2(dir.path, meta_for(config, scenarios), 2);
    for (u64 idx = 0; idx < 4; ++idx) {
      execute_into(w0, scenarios, config.seed, config.trials, idx);
    }
    for (u64 idx = 8; idx < 12; ++idx) {
      execute_into(w2, scenarios, config.seed, config.trials, idx);
    }
    w0.close();
    w2.close();
  }

  store::JournalScan scan = store::scan_journal(dir.path);
  const auto pending =
      store::pending_ranges(scan, scenarios.size(), config.trials);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], (TrialRange{4, 8}));

  // The resumed campaign runs exactly that hole into a fresh shard.
  {
    store::ShardWriter w(dir.path, meta_for(config, scenarios), 3);
    for (u64 idx = pending[0].begin; idx < pending[0].end; ++idx) {
      execute_into(w, scenarios, config.seed, config.trials, idx);
    }
    w.close();
  }
  EXPECT_EQ(store::read_report(dir.path).to_json(/*include_trials=*/false),
            baseline.to_json(/*include_trials=*/false));
}

TEST(DistJournal, DuplicateTrialsKeepExactlyTheFirstShardsCopy) {
  TempJournalDir dir("dupfirst");
  auto scenarios = two_synthetic_scenarios();
  store::JournalMeta meta = store::JournalMeta::describe(5, 4, scenarios);

  // Shards 0 and 1 both hold (scenario 0, trial 2) with distinguishable
  // payloads. Real duplicates are identical (trials are deterministic);
  // distinct payloads let the test observe WHICH copy survived.
  TrialResult from_shard0;
  from_shard0.trial = 2;
  from_shard0.metric = 0.25;
  TrialResult from_shard1 = from_shard0;
  from_shard1.metric = 0.75;
  {
    store::ShardWriter w0(dir.path, meta, 0);
    w0.append(0, from_shard0);
    w0.close();
    store::ShardWriter w1(dir.path, meta, 1);
    w1.append(0, from_shard1);
    w1.close();
  }

  store::JournalMerge merge(dir.path);
  store::JournalRecord rec;
  ASSERT_TRUE(merge.next(rec));
  EXPECT_EQ(rec.result.metric, 0.25);  // lexicographically first shard wins
  EXPECT_FALSE(merge.next(rec));       // and exactly one copy survives

  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_EQ(scan.records, 1u);
}

TEST(DistJournal, ParentCrashMidCampaignResumesToIdenticalReport) {
  TempJournalDir dir("crashresume");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config;
  config.seed = 31;
  config.trials = 8;
  config.threads = 1;
  const CampaignReport baseline = CampaignRunner(config).run(scenarios);
  const u64 total = u64{scenarios.size()} * config.trials;

  // First run: three workers were mid-way through their trials when the
  // campaign died, each shard a different prefix of its share (whatever
  // happened to be flushed at the kill instant).
  const store::JournalMeta meta = meta_for(config, scenarios);
  const TrialRange shares[] = {{0, 6}, {6, 11}, {11, 16}};
  const u64 flushed[] = {4, 2, 5};
  for (u32 w = 0; w < 3; ++w) {
    store::ShardWriter writer(dir.path, meta, w);
    for (u64 idx = shares[w].begin; idx < shares[w].begin + flushed[w];
         ++idx) {
      execute_into(writer, scenarios, config.seed, config.trials, idx);
    }
    writer.close();
  }

  // Resumed run: scan, run the holes, finish the campaign.
  store::JournalScan scan = store::scan_journal(dir.path);
  const auto pending =
      store::pending_ranges(scan, scenarios.size(), config.trials);
  ASSERT_EQ(pending.size(), 2u);  // [4,6), [8,11); worker 2 had finished
  EXPECT_EQ(pending[0], (TrialRange{4, 6}));
  EXPECT_EQ(pending[1], (TrialRange{8, 11}));
  u32 next_shard = 3;
  u64 re_executed = 0;
  for (const TrialRange& r : pending) {
    store::ShardWriter writer(dir.path, meta, next_shard++);
    for (u64 idx = r.begin; idx < r.end; ++idx) {
      execute_into(writer, scenarios, config.seed, config.trials, idx);
      re_executed++;
    }
    writer.close();
  }
  EXPECT_EQ(re_executed, total - (4 + 2 + 5));

  EXPECT_EQ(store::read_report(dir.path).to_json(/*include_trials=*/false),
            baseline.to_json(/*include_trials=*/false));
}

// --- worker processes --------------------------------------------------------

/// Config for a journaled campaign of `trials` trials per scenario in `dir`.
CampaignConfig journaled(const std::string& dir, u32 trials, u32 workers) {
  CampaignConfig config;
  config.seed = 31;
  config.trials = trials;
  config.threads = 1;
  config.workers = workers;
  config.journal_dir = dir;
  return config;
}

/// Largest shard id in the journal: the first round of W workers numbers
/// its shards below W, so a larger id proves a second round ran.
u32 max_shard_id(const std::string& dir) {
  u32 max_id = 0;
  for (const store::ShardState& st : store::scan_journal(dir).shards) {
    max_id = std::max(max_id, st.shard_id);
  }
  return max_id;
}

std::string slurp(const fs::path& p) {
  std::ostringstream out;
  out << std::ifstream(p, std::ios::binary).rdbuf();
  return out.str();
}

/// Folds every *.jsonl file in a --workers progress directory, the way
/// campaign_watch does; `files` receives how many there were.
ProgressMerger::Snapshot merge_progress_dir(const std::string& dir,
                                            std::size_t& files) {
  ProgressMerger merger;
  files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".jsonl") continue;
    const std::string text = slurp(entry.path());
    merger.feed(files++, text.data(), text.size());
  }
  return merger.snapshot();
}

TEST(WorkerProcesses, KilledChildIsRecoveredByASecondRound) {
  TempJournalDir dir("killed");
  TempJournalDir base_dir("killed_base");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config = journaled(dir.path, 12, /*workers=*/3);
  // Whichever child claims trial 7 dies before running it; its siblings
  // keep claiming, so only trial 7 is left for the second round.
  config.kill_trial = 7;
  config.progress_path = dir.path + "/progress";
  const CampaignReport report = CampaignRunner(config).run(scenarios);

  const CampaignReport baseline =
      CampaignRunner(journaled(base_dir.path, 12, 0)).run(scenarios);
  EXPECT_EQ(report.to_json(), baseline.to_json());
  CampaignConfig in_memory{.seed = 31, .trials = 12, .threads = 1};
  EXPECT_EQ(store::read_report(dir.path).to_json(),
            CampaignRunner(in_memory).run(scenarios).to_json());
  EXPECT_GE(max_shard_id(dir.path), 3u);

  // The progress files add up to every trial, and the shared counter's
  // largest campaign_done reaches the campaign total.
  std::size_t files = 0;
  const ProgressMerger::Snapshot snap =
      merge_progress_dir(config.progress_path, files);
  EXPECT_GT(files, 3u);  // a worker-<shard>.jsonl per child of both rounds
  EXPECT_EQ(snap.campaign_done, 24u);
  EXPECT_EQ(snap.campaign_total, 24u);
  ASSERT_EQ(snap.rows.size(), 2u);
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    EXPECT_EQ(row.done, 12u) << row.name;
  }
  // Every round measures elapsed time from the parent's start, so the
  // newest line (the second round's) is no earlier than any file's last.
  for (const auto& entry : fs::directory_iterator(config.progress_path)) {
    const std::string text = slurp(entry.path());
    ProgressMerger one;
    one.feed(0, text.data(), text.size());
    EXPECT_GE(snap.elapsed_s, one.snapshot().elapsed_s) << entry.path();
  }
}

TEST(WorkerProcesses, EarlierRunsProgressFilesAreRemovedBeforeForking) {
  // Shard ids keep counting across runs, so a resumed run never rewrites
  // the killed run's worker files. Left in place, they would merge into
  // this run's view. Files the runner does not write are left alone.
  TempJournalDir dir("stale_progress");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config = journaled(dir.path, 4, 2);
  config.progress_path = dir.path + "/progress";
  fs::create_directories(config.progress_path);
  std::ofstream(config.progress_path + "/worker-9.jsonl")
      << "{\"scenario\":\"synthetic/a\",\"trial\":0,\"success\":true,"
         "\"done\":4,\"trials\":4,\"successes\":4,\"campaign_done\":30,"
         "\"campaign_total\":40,\"elapsed_s\":9,\"eta_s\":3}\n";
  std::ofstream(config.progress_path + "/notes.txt") << "kept\n";
  (void)CampaignRunner(config).run(scenarios);

  EXPECT_FALSE(fs::exists(config.progress_path + "/worker-9.jsonl"));
  EXPECT_EQ(slurp(config.progress_path + "/notes.txt"), "kept\n");
  std::size_t files = 0;
  const ProgressMerger::Snapshot snap =
      merge_progress_dir(config.progress_path, files);
  EXPECT_EQ(files, 2u);  // this run's two children only
  EXPECT_EQ(snap.campaign_done, 8u);
  EXPECT_EQ(snap.campaign_total, 8u);
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    EXPECT_EQ(row.done, 4u) << row.name;
  }
}

TEST(WorkerProcesses, TrialThatAlwaysKillsItsProcessFailsTheCampaign) {
  TempJournalDir dir("always_killed");
  std::vector<ScenarioSpec> scenarios = two_synthetic_scenarios();
  ScenarioSpec killer = synthetic_scenario("synthetic/killer");
  killer.trial_fn = [](const ScenarioSpec&,
                       const TrialContext& ctx) -> TrialResult {
    if (ctx.trial == 1) std::raise(SIGKILL);
    return {};
  };
  scenarios.push_back(std::move(killer));
  try {
    (void)CampaignRunner(journaled(dir.path, 4, 2)).run(scenarios);
    ADD_FAILURE() << "a campaign that can never finish returned a report";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journaled nothing: 1 trials "
                                         "outstanding"),
              std::string::npos)
        << e.what();
  }
  // Everything but the killing trial was journaled before the rounds
  // stopped.
  EXPECT_EQ(store::scan_journal(dir.path).records, 11u);
}

TEST(WorkerProcesses, ChildExitingNonZeroFailsTheCampaign) {
  TempJournalDir dir("exit_status");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config = journaled(dir.path, 4, 2);
  config.progress_path = dir.path + "/progress";
  // Shard 0's progress file cannot be opened, so its child fails.
  fs::create_directories(config.progress_path + "/worker-0.jsonl");
  try {
    (void)CampaignRunner(config).run(scenarios);
    ADD_FAILURE() << "a failed worker process went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "worker process for shard 0 exited with status 1"),
              std::string::npos)
        << e.what();
  }
}

#if DNSTIME_OBS
TEST(WorkerProcesses, DumpsAndTraceMatchThreads) {
  TempJournalDir dir("outputs");
  const std::vector<ScenarioSpec> scenarios{boot_time_scenario(),
                                            synthetic_scenario("synthetic/a")};
  CampaignConfig threads{.seed = 5, .trials = 2, .threads = 2};
  threads.dump_dir = dir.path + "/dumps-threads";
  threads.dump_on = DumpOn::kAlways;
  threads.trace_path = dir.path + "/trace-threads.json";
  threads.trace_index = 1;
  CampaignConfig workers = threads;
  workers.threads = 1;
  workers.workers = 3;
  workers.journal_dir = dir.path + "/journal";
  workers.dump_dir = dir.path + "/dumps-workers";
  workers.trace_path = dir.path + "/trace-workers.json";
  (void)CampaignRunner(threads).run(scenarios);
  (void)CampaignRunner(workers).run(scenarios);

  const std::string trace = slurp(threads.trace_path);
  EXPECT_NE(trace.find("\"name\":\"poison\""), std::string::npos);
  EXPECT_EQ(slurp(workers.trace_path), trace);
  std::size_t dumps = 0;
  for (const auto& entry : fs::directory_iterator(threads.dump_dir)) {
    EXPECT_EQ(slurp(fs::path(workers.dump_dir) / entry.path().filename()),
              slurp(entry.path()))
        << entry.path();
    dumps++;
  }
  EXPECT_EQ(dumps, 4u);
}
#endif  // DNSTIME_OBS

/// Runs a worker-process campaign on a journal it must refuse and checks
/// that the error names `why` and that no worker ran (workers would add
/// shards). The progress path lies under a regular file: a runner that
/// got past the journal checks fails there instead of forking this test
/// binary as its workers.
void expect_refused(CampaignConfig config,
                    const std::vector<ScenarioSpec>& scenarios,
                    const std::string& why) {
  const std::string blocker = config.journal_dir + "/not-a-directory";
  std::ofstream(blocker) << "x";
  config.progress_path = blocker + "/progress";
  config.workers = 2;
  const std::vector<std::string> shards_before =
      store::list_shards(config.journal_dir);
  try {
    (void)CampaignRunner(config).run(scenarios);
    ADD_FAILURE() << "the runner accepted the journal (" << why << ")";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(store::list_shards(config.journal_dir), shards_before);
}

TEST(WorkerProcesses, RefuseForeignOrDirtyJournalsBeforeForking) {
  TempJournalDir dir("coordguard");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config;
  config.seed = 1;
  config.trials = 4;
  config.threads = 1;
  config.journal_dir = dir.path;
  (void)CampaignRunner(config).run(scenarios);

  // Shards already present and no resume.
  expect_refused(config, scenarios, "already contains shards");

  // Resume, but the journal belongs to another seed, trial count or
  // scenario set.
  CampaignConfig other = config;
  other.resume = true;
  other.seed = 2;
  expect_refused(other, scenarios, "cannot resume: journal '" + dir.path +
                                       "' was written with seed 1");
  other = config;
  other.resume = true;
  other.trials = 8;
  expect_refused(other, scenarios, "ran 4 trials/scenario");
  other = config;
  other.resume = true;
  auto renamed = two_synthetic_scenarios();
  renamed[1].name = "synthetic/renamed";
  expect_refused(other, renamed, "describes a different scenario set");
}

TEST(WorkerProcesses, RefuseDuplicateScenarioNamesBeforeForking) {
  TempJournalDir dir("coorddup");
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back(synthetic_scenario("synthetic/same"));
  scenarios.push_back(synthetic_scenario("synthetic/same"));
  CampaignConfig config;
  config.seed = 1;
  config.trials = 2;
  config.journal_dir = dir.path;
  expect_refused(config, scenarios,
                 "scenario name 'synthetic/same' is duplicated");
}

TEST(WorkerProcesses, RequireAJournal) {
  CampaignConfig config{.seed = 1, .trials = 2, .threads = 1, .workers = 2};
  EXPECT_THROW((void)CampaignRunner(config).run(two_synthetic_scenarios()),
               std::invalid_argument);
}

// --- ProgressMerger ---------------------------------------------------------

std::string progress_line(const char* scenario, u64 done, u64 trials,
                          u64 successes) {
  std::string line = "{\"scenario\":\"";
  line += scenario;
  line += "\",\"done\":";
  line += std::to_string(done);
  line += ",\"trials\":";
  line += std::to_string(trials);
  line += ",\"successes\":";
  line += std::to_string(successes);
  line += "}\n";
  return line;
}

TEST(ProgressMergerTest, SumsCountsAcrossFilesAndRecomputesTheInterval) {
  ProgressMerger m;
  const std::string a = progress_line("sweep/x", 3, 6, 2);
  const std::string b = progress_line("sweep/x", 3, 6, 1);
  m.feed(0, a.data(), a.size());
  m.feed(1, b.data(), b.size());

  const auto snap = m.snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  const auto& row = snap.rows[0];
  EXPECT_EQ(row.name, "sweep/x");
  EXPECT_EQ(row.done, 6u);
  EXPECT_EQ(row.trials, 6u);
  EXPECT_EQ(row.successes, 3u);
  EXPECT_DOUBLE_EQ(row.rate, 0.5);
  const WilsonInterval ci = wilson_interval(3, 6);  // from the SUMS
  EXPECT_DOUBLE_EQ(row.wilson_low, ci.low);
  EXPECT_DOUBLE_EQ(row.wilson_high, ci.high);
}

TEST(ProgressMergerTest, InterleavedPartialLinesNeverTear) {
  // Two streams fed in fragments that both split lines mid-key, with the
  // fragments interleaved across streams — the tail-follow worst case.
  // The merged result must equal feeding each stream in one piece.
  const std::string s0 = progress_line("sweep/x", 1, 4, 1) +
                         progress_line("sweep/x", 2, 4, 1) +
                         progress_line("sweep/y", 1, 4, 0);
  const std::string s1 = progress_line("sweep/y", 1, 4, 1) +
                         progress_line("sweep/x", 1, 4, 0);

  ProgressMerger whole;
  whole.feed(0, s0.data(), s0.size());
  whole.feed(1, s1.data(), s1.size());

  ProgressMerger shredded;
  std::size_t p0 = 0, p1 = 0;
  // Prime-sized chunks guarantee splits inside keys, values and quotes.
  while (p0 < s0.size() || p1 < s1.size()) {
    if (p0 < s0.size()) {
      const std::size_t n = std::min<std::size_t>(7, s0.size() - p0);
      shredded.feed(0, s0.data() + p0, n);
      p0 += n;
    }
    if (p1 < s1.size()) {
      const std::size_t n = std::min<std::size_t>(11, s1.size() - p1);
      shredded.feed(1, s1.data() + p1, n);
      p1 += n;
    }
  }

  // Row order (first-seen across streams) legitimately depends on the
  // interleaving; the folded COUNTS must not. Compare by name.
  const auto a = whole.snapshot();
  const auto b = shredded.snapshot();
  const auto row = [](const ProgressMerger::Snapshot& snap,
                      const std::string& name) {
    for (const auto& r : snap.rows) {
      if (r.name == name) return r;
    }
    ADD_FAILURE() << "missing row " << name;
    return ProgressMerger::MergedRow{};
  };
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (const auto& ar : a.rows) {
    const auto br = row(b, ar.name);
    EXPECT_EQ(ar.done, br.done) << ar.name;
    EXPECT_EQ(ar.successes, br.successes) << ar.name;
  }
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(b.bad_lines, 0u);
  // x: stream0 latest done=2/succ=1, stream1 done=1/succ=0 -> 3 done, 1 succ.
  EXPECT_EQ(row(b, "sweep/x").done, 3u);
  EXPECT_EQ(row(b, "sweep/x").successes, 1u);
}

TEST(ProgressMergerTest, CampaignDoneIsTheLargestAcrossStreams) {
  // Worker processes share one campaign_done counter but write separate
  // files, so a file read later may carry an older (smaller) value. The
  // total, elapsed time and ETA must come from the same (newest) line.
  ProgressMerger m;
  const std::string trial_only = progress_line("sweep/x", 2, 4, 2);
  const std::string newer =
      "{\"campaign_done\":5,\"campaign_total\":8,\"elapsed_s\":1.5,"
      "\"eta_s\":0.9}\n";
  const std::string older =
      "{\"campaign_done\":3,\"campaign_total\":9,\"elapsed_s\":1.2,"
      "\"eta_s\":1.1}\n";
  m.feed(0, trial_only.data(), trial_only.size());
  m.feed(1, newer.data(), newer.size());
  m.feed(2, older.data(), older.size());
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.campaign_done, 5u);
  EXPECT_EQ(snap.campaign_total, 8u);
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.eta_s, 0.9);
  EXPECT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.bad_lines, 0u);  // campaign-only lines are well formed
}

TEST(ProgressMergerTest, MalformedLinesAreCountedNotFolded) {
  ProgressMerger m;
  const std::string junk = "not json at all\n{\"half\":1}\n";
  m.feed(0, junk.data(), junk.size());
  const auto snap = m.snapshot();
  EXPECT_TRUE(snap.rows.empty());
  EXPECT_EQ(snap.lines, 2u);
  EXPECT_EQ(snap.bad_lines, 2u);
}

TEST(ProgressMergerTest, CountsThatAreNotExactIntegersReadAsMissing) {
  // A count must be an integer in [0, 2^53], which a double holds exactly.
  // Anything else reads as a missing key: 1e300 once reached a cast to u64
  // (undefined behaviour; the input is kept as
  // fuzz/corpus/progress_merge/crash-done-1e300), and strtod also reads nan
  // and inf.
  ProgressMerger m;
  const std::string bad =
      "{\"scenario\":\"sweep/a\",\"done\":1e300,\"trials\":4}\n"
      "{\"scenario\":\"sweep/b\",\"done\":nan}\n"
      "{\"scenario\":\"sweep/c\",\"done\":inf}\n"
      "{\"scenario\":\"sweep/d\",\"done\":-1}\n"
      "{\"scenario\":\"sweep/e\",\"done\":2.5}\n"
      "{\"scenario\":\"sweep/f\",\"done\":9007199254740994}\n"  // 2^53+2
      "{\"campaign_done\":-inf}\n";
  m.feed(0, bad.data(), bad.size());
  auto snap = m.snapshot();
  EXPECT_TRUE(snap.rows.empty());
  EXPECT_EQ(snap.lines, 7u);
  EXPECT_EQ(snap.bad_lines, 7u);

  // Good lines whose other keys are bad keep the last good values.
  const std::string good =
      "{\"scenario\":\"sweep/x\",\"done\":2,\"trials\":1e300,"
      "\"successes\":NAN}\n"
      "{\"campaign_done\":3,\"campaign_total\":8,\"elapsed_s\":1.5,"
      "\"eta_s\":0.5}\n"
      "{\"campaign_done\":9007199254740992,\"campaign_total\":INF,"
      "\"elapsed_s\":nan,\"eta_s\":1e999}\n";
  m.feed(0, good.data(), good.size());
  snap = m.snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.rows[0].done, 2u);
  EXPECT_EQ(snap.rows[0].trials, 0u);
  EXPECT_EQ(snap.rows[0].successes, 0u);
  EXPECT_EQ(snap.rows[0].wilson_low, wilson_interval(0, 2).low);
  EXPECT_EQ(snap.rows[0].wilson_high, wilson_interval(0, 2).high);
  EXPECT_EQ(snap.campaign_done, u64{1} << 53);
  EXPECT_EQ(snap.campaign_total, 8u);
  EXPECT_EQ(snap.elapsed_s, 1.5);
  EXPECT_EQ(snap.eta_s, 0.5);
  EXPECT_EQ(snap.bad_lines, 7u);
}

}  // namespace
}  // namespace dnstime::campaign
