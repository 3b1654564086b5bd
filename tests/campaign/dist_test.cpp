// The distributed campaign layer's process-free contracts:
//   1. the lease wire codec is strict — a desynchronised pipe must parse
//      to nullopt, never to a plausible-but-wrong message;
//   2. LeaseBook (partition, work-stealing, death reissue, duplicate-ack
//      dedupe) is a pure state machine whose decisions depend only on the
//      event sequence;
//   3. pending_ranges turns any journal scan into the exact work pool a
//      coordinator (re)starts from;
//   4. degraded journals — header-only shards, a worker's shard missing
//      entirely, duplicated trials across shards, a coordinator killed
//      mid-campaign — merge into reports byte-identical to an
//      uninterrupted single-process run;
//   5. the coordinator refuses a journal it must not touch before any
//      worker process starts;
//   6. ProgressMerger folds interleaved multi-process progress streams
//      without tearing lines split across reads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/dist/coordinator.h"
#include "campaign/dist/lease.h"
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
using dist::Lease;
using dist::LeaseBook;
using dist::Msg;
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

/// Executes flattened trial `idx` exactly the way a dist worker does and
/// appends it to `writer` — the building block for simulating partial
/// campaigns without spawning processes.
void execute_into(store::ShardWriter& writer,
                  const std::vector<ScenarioSpec>& scenarios, u64 seed,
                  u32 trials, u64 idx) {
  const auto scenario_idx = static_cast<u32>(idx / trials);
  obs::FlightRecorder flight;
  writer.append(scenario_idx,
                execute_trial(scenarios[scenario_idx], seed,
                              static_cast<u32>(idx % trials), flight));
}

// --- wire codec -------------------------------------------------------------

TEST(DistMsg, RoundTripsEveryKind) {
  Msg lease;
  lease.kind = Msg::Kind::Lease;
  lease.a = 10;
  lease.b = 250;
  lease.shard_id = 7;
  EXPECT_EQ(lease.encode(), "LEASE 10 250 7\n");

  Msg trim;
  trim.kind = Msg::Kind::Trim;
  trim.a = 130;
  EXPECT_EQ(trim.encode(), "TRIM 130\n");

  Msg fin;
  fin.kind = Msg::Kind::Fin;
  EXPECT_EQ(fin.encode(), "FIN\n");

  Msg done;
  done.kind = Msg::Kind::Done;
  done.a = 42;
  done.b = 1;
  EXPECT_EQ(done.encode(), "DONE 42 1\n");

  for (const Msg* m : {&lease, &trim, &fin, &done}) {
    std::string line = m->encode();
    line.pop_back();  // parse() takes the line without its '\n'
    const std::optional<Msg> parsed = Msg::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->kind, m->kind);
    EXPECT_EQ(parsed->a, m->a);
    EXPECT_EQ(parsed->b, m->b);
    EXPECT_EQ(parsed->shard_id, m->shard_id);
  }
}

TEST(DistMsg, RejectsEveryMalformation) {
  const char* bad[] = {
      "",                             // empty
      "NOPE 1",                       // unknown verb
      "lease 1 2 3",                  // verbs are case-sensitive
      "FIN 1",                        // FIN takes no fields
      "TRIM",                         // missing field
      "TRIM ",                        // empty field
      "TRIM 12x",                     // junk inside a field
      "TRIM 12 ",                     // trailing separator
      "LEASE 1 2",                    // missing shard id
      "LEASE 1 2 3 4",                // trailing field
      "LEASE 1 2 4294967296",         // shard id overflows u32
      "LEASE -1 2 3",                 // signs are not digits
      "DONE 5",                       // missing success flag
      "DONE 5 2",                     // success must be 0 or 1
      "DONE 18446744073709551616 0",  // u64 overflow
  };
  for (const char* line : bad) {
    EXPECT_FALSE(Msg::parse(line).has_value()) << "'" << line << "'";
  }
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

// --- LeaseBook --------------------------------------------------------------

TEST(LeaseBookTest, StartupStealCascadePartitionsTheRange) {
  // A fresh campaign's pool is one range; worker 0 takes it whole and the
  // others carve it up by stealing half the largest remainder each.
  LeaseBook book({{0, 16}}, 16, 4, /*first_shard_id=*/5);
  const auto a0 = book.next_assignment(0);
  ASSERT_TRUE(a0);
  EXPECT_EQ(a0->lease, (Lease{0, 16, 5}));
  EXPECT_FALSE(a0->stolen);

  const auto a1 = book.next_assignment(1);
  ASSERT_TRUE(a1);
  EXPECT_TRUE(a1->stolen);
  EXPECT_EQ(a1->victim, 0u);
  EXPECT_EQ(a1->victim_new_end, 8u);
  EXPECT_EQ(a1->lease, (Lease{8, 16, 6}));
  EXPECT_EQ(book.active_lease(0).end, 8u);  // the TRIM the book decided on

  const auto a2 = book.next_assignment(2);
  ASSERT_TRUE(a2);
  EXPECT_EQ(a2->lease, (Lease{4, 8, 7}));  // stole from worker 0 again
  const auto a3 = book.next_assignment(3);
  ASSERT_TRUE(a3);
  EXPECT_EQ(a3->lease, (Lease{12, 16, 8}));  // worker 1 was then largest

  // Every trial is covered exactly once by the four active leases.
  std::vector<int> cover(16, 0);
  for (u32 w = 0; w < 4; ++w) {
    const Lease& l = book.active_lease(w);
    for (u64 i = l.begin; i < l.end; ++i) cover[i]++;
  }
  for (u64 i = 0; i < 16; ++i) EXPECT_EQ(cover[i], 1) << "index " << i;
  EXPECT_EQ(book.shard_ids_issued(), 9u);
}

TEST(LeaseBookTest, ResumePoolSkipsJournaledTrials) {
  LeaseBook book({{2, 4}, {6, 8}}, 8, 2, 0);
  EXPECT_EQ(book.target(), 4u);
  const auto a0 = book.next_assignment(0);
  const auto a1 = book.next_assignment(1);
  ASSERT_TRUE(a0 && a1);
  EXPECT_EQ(a0->lease, (Lease{2, 4, 0}));
  EXPECT_EQ(a1->lease, (Lease{6, 8, 1}));
}

TEST(LeaseBookTest, DuplicateAcksCountOnceAndCompletionFreesTheWorker) {
  LeaseBook book({{0, 3}}, 3, 1, 0);
  (void)book.next_assignment(0);
  book.mark_done(0, 0);
  book.mark_done(0, 0);  // reissued-overlap duplicate
  EXPECT_EQ(book.done_count(), 1u);
  EXPECT_TRUE(book.worker_busy(0));
  book.mark_done(0, 1);
  book.mark_done(0, 2);
  EXPECT_EQ(book.done_count(), 3u);
  EXPECT_TRUE(book.all_done());
  EXPECT_FALSE(book.worker_busy(0));
}

TEST(LeaseBookTest, DeadWorkerTailIsReissuedToTheNextIdleWorker) {
  LeaseBook book({{0, 8}}, 8, 2, 0);
  (void)book.next_assignment(0);
  book.mark_done(0, 0);
  book.mark_done(0, 1);
  book.worker_dead(0);  // acked [0,2); tail [2,8) must survive
  EXPECT_FALSE(book.worker_busy(0));

  const auto a1 = book.next_assignment(1);
  ASSERT_TRUE(a1);
  EXPECT_FALSE(a1->stolen);  // from the pool, not a steal
  EXPECT_EQ(a1->lease, (Lease{2, 8, 1}));
  for (u64 i = 2; i < 8; ++i) book.mark_done(1, i);
  EXPECT_EQ(book.done_count(), 8u);
  EXPECT_TRUE(book.all_done());
}

TEST(LeaseBookTest, SingleTrialRemaindersAreNeverStolen) {
  LeaseBook book({{0, 4}}, 4, 2, 0);
  (void)book.next_assignment(0);
  for (u64 i = 0; i < 3; ++i) book.mark_done(0, i);
  // Worker 0 has exactly one unacked trial; stealing it would only race.
  EXPECT_FALSE(book.next_assignment(1).has_value());  // parked
  book.mark_done(0, 3);
  EXPECT_TRUE(book.all_done());
}

TEST(LeaseBookTest, TrimRaceOverlapIsHarmless) {
  // Victim journals past the split before the TRIM lands: its stale DONEs
  // and the thief's re-executed copies both arrive; the done set counts
  // each trial once and the campaign still converges.
  LeaseBook book({{0, 8}}, 8, 2, 0);
  (void)book.next_assignment(0);
  const auto steal = book.next_assignment(1);
  ASSERT_TRUE(steal && steal->stolen);
  EXPECT_EQ(steal->victim_new_end, 4u);

  for (u64 i = 0; i < 6; ++i) book.mark_done(0, i);  // raced past the TRIM
  for (u64 i = 4; i < 8; ++i) book.mark_done(1, i);  // thief's full half
  EXPECT_EQ(book.done_count(), 8u);
  EXPECT_TRUE(book.all_done());
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

  // Workers 0 and 2 flushed their shards; worker 1 (leased [4, 8)) died
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

  // The resumed coordinator leases exactly that hole to a fresh shard.
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

TEST(DistJournal, CoordinatorCrashMidCampaignResumesToIdenticalReport) {
  TempJournalDir dir("crashresume");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig config;
  config.seed = 31;
  config.trials = 8;
  config.threads = 1;
  const CampaignReport baseline = CampaignRunner(config).run(scenarios);
  const u64 total = u64{scenarios.size()} * config.trials;

  // First coordinator: three workers were mid-lease when it died, each
  // shard a different prefix of its lease (whatever happened to be flushed
  // at the kill instant).
  const store::JournalMeta meta = meta_for(config, scenarios);
  const TrialRange leases[] = {{0, 6}, {6, 11}, {11, 16}};
  const u64 flushed[] = {4, 2, 5};
  for (u32 w = 0; w < 3; ++w) {
    store::ShardWriter writer(dir.path, meta, w);
    for (u64 idx = leases[w].begin; idx < leases[w].begin + flushed[w];
         ++idx) {
      execute_into(writer, scenarios, config.seed, config.trials, idx);
    }
    writer.close();
  }

  // Second coordinator: scan, lease out the holes, finish the campaign.
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

// --- coordinator journal guards ---------------------------------------------

/// Runs the coordinator on a journal it must refuse and checks that the
/// error names `why` and that no worker ran (workers would add shards).
/// The progress path lies under a regular file: a coordinator that got
/// past the journal checks fails there instead of forking this test binary
/// as its workers.
void expect_refused(CampaignConfig config,
                    const std::vector<ScenarioSpec>& scenarios,
                    const std::string& why) {
  const std::string blocker = config.journal_dir + "/not-a-directory";
  std::ofstream(blocker) << "x";
  config.progress_path = blocker + "/progress";
  const std::vector<std::string> shards_before =
      store::list_shards(config.journal_dir);
  dist::DistOptions opt;
  opt.workers = 2;
  opt.respawn_args = {"dist_test"};
  try {
    (void)dist::run_coordinator(config, scenarios, opt);
    ADD_FAILURE() << "coordinator accepted the journal (" << why << ")";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(store::list_shards(config.journal_dir), shards_before);
}

TEST(DistCoordinator, RefusesForeignOrDirtyJournalsBeforeSpawningWorkers) {
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

TEST(DistCoordinator, RefusesDuplicateScenarioNamesBeforeSpawningWorkers) {
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

TEST(ProgressMergerTest, CampaignFactsComeFromCoordinatorStyleLines) {
  ProgressMerger m;
  const std::string worker = progress_line("sweep/x", 2, 4, 2);
  const std::string coord =
      "{\"campaign_done\":5,\"campaign_total\":8,\"elapsed_s\":1.5,"
      "\"eta_s\":0.9}\n";
  m.feed(0, worker.data(), worker.size());
  m.feed(1, coord.data(), coord.size());
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.campaign_done, 5u);
  EXPECT_EQ(snap.campaign_total, 8u);
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.eta_s, 0.9);
  EXPECT_EQ(snap.bad_lines, 0u);  // neither line style is malformed
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

}  // namespace
}  // namespace dnstime::campaign
