// The trial journal's three contracts:
//   1. round-trip fidelity — any TrialResult (non-finite doubles, empty /
//      newline / NUL-bearing error strings) survives shard write + merged
//      read bit-for-bit;
//   2. crash tolerance — a torn or corrupted final frame costs exactly the
//      records after the last valid frame, never the whole shard;
//   3. resume determinism — journal K of N trials, restart, and the final
//      report is byte-identical to one uninterrupted in-memory run, at any
//      thread count, while the runner keeps no per-trial results resident.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/store/journal.h"
#include "campaign/store/journal_reader.h"
#include "campaign/store/shard_writer.h"
#include "campaign/trial.h"
#include "common/rng.h"
#include "obs/provenance.h"

namespace dnstime::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the gtest temp root, wiped on construction so a
/// crashed previous run cannot leak state into this one.
struct TempJournalDir {
  explicit TempJournalDir(const std::string& tag)
      : path((fs::path(::testing::TempDir()) / ("dnstime_journal_" + tag))
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

/// Same cheap deterministic scenario the runner tests use: exercises the
/// whole journal/report path without building a World.
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

/// Adversarial TrialResult: non-finite doubles, negative zero, and error
/// strings that are empty, multi-line, NUL-bearing or long.
TrialResult random_result(Rng& rng, u32 trial) {
  TrialResult r;
  r.trial = trial;
  r.seed = rng.uniform(0, ~u64{0});
  r.success = rng.chance(0.7);
  switch (rng.uniform(0, 3)) {
    case 0: r.duration_s = rng.uniform01() * 1e4; break;
    case 1: r.duration_s = std::numeric_limits<double>::quiet_NaN(); break;
    case 2: r.duration_s = std::numeric_limits<double>::infinity(); break;
    default: r.duration_s = -0.0; break;
  }
  r.clock_shift_s = rng.chance(0.2)
                        ? -std::numeric_limits<double>::infinity()
                        : -rng.uniform01() * 1000.0;
  r.metric = rng.chance(0.2) ? std::numeric_limits<double>::quiet_NaN()
                             : rng.uniform01();
  r.fragments_planted = rng.uniform(0, 1u << 20);
  r.replant_rounds = rng.uniform(0, 64);
  switch (rng.uniform(0, 3)) {
    case 0: r.error = ""; break;
    case 1: r.error = "boom"; break;
    case 2:
      r.error = std::string("multi\nline\terror with a NUL: ");
      r.error.push_back('\0');
      r.error += "tail";
      break;
    default: r.error = std::string(3000, 'x'); break;
  }
  return r;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.trial, b.trial);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  // Bit comparison: NaN payloads and signed zeros must round-trip exactly.
  EXPECT_EQ(std::bit_cast<u64>(a.duration_s), std::bit_cast<u64>(b.duration_s));
  EXPECT_EQ(std::bit_cast<u64>(a.clock_shift_s),
            std::bit_cast<u64>(b.clock_shift_s));
  EXPECT_EQ(std::bit_cast<u64>(a.metric), std::bit_cast<u64>(b.metric));
  EXPECT_EQ(a.fragments_planted, b.fragments_planted);
  EXPECT_EQ(a.replant_rounds, b.replant_rounds);
  EXPECT_EQ(a.error, b.error);
}

TEST(TrialJournal, RandomizedResultsRoundTripThroughShardedWriteAndMerge) {
  TempJournalDir dir("roundtrip");
  auto scenarios = two_synthetic_scenarios();
  const u32 trials = 64;
  store::JournalMeta meta = store::JournalMeta::describe(99, trials, scenarios);

  // Scatter the trials over three shards (ascending within each, like a
  // worker pool does), journaling only ~80% of them.
  Rng rng{1234};
  std::vector<store::ShardWriter> writers;
  for (u32 id = 0; id < 3; ++id) writers.emplace_back(dir.path, meta, id);
  std::vector<std::pair<u64, TrialResult>> expected;  // key -> result
  for (u32 s = 0; s < scenarios.size(); ++s) {
    for (u32 t = 0; t < trials; ++t) {
      if (!rng.chance(0.8)) continue;
      TrialResult r = random_result(rng, t);
      writers[rng.uniform(0, 2)].append(s, r);
      expected.emplace_back(u64{s} * trials + t, std::move(r));
    }
  }
  for (auto& w : writers) w.close();

  store::JournalMerge merge(dir.path);
  ASSERT_TRUE(merge.valid());
  EXPECT_EQ(merge.meta().campaign_seed, 99u);
  EXPECT_EQ(merge.meta().trials_per_scenario, trials);
  ASSERT_EQ(merge.meta().scenarios.size(), 2u);
  EXPECT_EQ(merge.meta().scenarios[0].name, "synthetic/a");
  EXPECT_EQ(merge.meta().scenarios[1].attack, "custom");

  store::JournalRecord rec;
  std::size_t i = 0;
  while (merge.next(rec)) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(u64{rec.scenario} * trials + rec.result.trial,
              expected[i].first);  // merged back into trial-index order
    expect_identical(rec.result, expected[i].second);
    i++;
  }
  EXPECT_EQ(i, expected.size());
}

TEST(TrialJournal, DuplicateRecordsAcrossShardsCollapseToOne) {
  TempJournalDir dir("dupes");
  auto scenarios = two_synthetic_scenarios();
  store::JournalMeta meta = store::JournalMeta::describe(7, 4, scenarios);
  Rng rng{5};
  TrialResult r = random_result(rng, 2);
  for (u32 id = 0; id < 2; ++id) {
    store::ShardWriter w(dir.path, meta, id);
    w.append(1, r);
    w.close();
  }
  store::JournalMerge merge(dir.path);
  store::JournalRecord rec;
  ASSERT_TRUE(merge.next(rec));
  EXPECT_EQ(rec.scenario, 1u);
  expect_identical(rec.result, r);
  EXPECT_FALSE(merge.next(rec));

  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_EQ(scan.records, 1u);  // distinct (scenario, trial) pairs
}

TEST(TrialJournal, TornTailLosesOnlyTheFinalFrame) {
  TempJournalDir dir("torn");
  auto scenarios = two_synthetic_scenarios();
  store::JournalMeta meta = store::JournalMeta::describe(3, 8, scenarios);
  Rng rng{42};
  {
    store::ShardWriter w(dir.path, meta, 0);
    for (u32 t = 0; t < 5; ++t) w.append(0, random_result(rng, t));
    w.close();
  }
  const std::string shard = dir.path + "/" + store::shard_filename(0);

  // Chopping one byte at a time walks the torn frame back to the previous
  // record boundary; truncate_torn_tails then removes the whole torn frame.
  for (int expected = 4; expected >= 0; --expected) {
    fs::resize_file(shard, fs::file_size(shard) - 1);
    store::JournalScan scan = store::scan_journal(dir.path);
    ASSERT_TRUE(scan.found);
    EXPECT_EQ(scan.records, static_cast<u64>(expected));
    EXPECT_LT(scan.shards[0].valid_bytes, scan.shards[0].file_bytes);
    store::truncate_torn_tails(scan);
    EXPECT_EQ(fs::file_size(shard), scan.shards[0].valid_bytes);
    store::JournalScan rescan = store::scan_journal(dir.path);
    EXPECT_EQ(rescan.records, static_cast<u64>(expected));
  }

  // One more cut tears the header itself: the shard contributes nothing
  // and truncate_torn_tails deletes the debris.
  fs::resize_file(shard, fs::file_size(shard) - 1);
  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_FALSE(scan.found);
  ASSERT_EQ(scan.shards.size(), 1u);
  EXPECT_FALSE(scan.shards[0].header_ok);
  store::truncate_torn_tails(scan);
  EXPECT_FALSE(fs::exists(shard));
}

TEST(TrialJournal, CorruptedTailFrameIsDroppedByCrc) {
  TempJournalDir dir("corrupt");
  auto scenarios = two_synthetic_scenarios();
  store::JournalMeta meta = store::JournalMeta::describe(3, 8, scenarios);
  Rng rng{43};
  {
    store::ShardWriter w(dir.path, meta, 0);
    for (u32 t = 0; t < 3; ++t) w.append(0, random_result(rng, t));
    w.close();
  }
  const std::string shard = dir.path + "/" + store::shard_filename(0);
  // Flip the last payload byte: the frame is complete but its CRC fails.
  {
    std::FILE* f = std::fopen(shard.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_EQ(scan.records, 2u);
  EXPECT_EQ(scan.done[0][0], 1);
  EXPECT_EQ(scan.done[0][1], 1);
  EXPECT_EQ(scan.done[0][2], 0);
}

TEST(TrialJournal, FreshJournaledRunMatchesInMemoryRunByteForByte) {
  TempJournalDir dir("fresh");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig in_memory{.seed = 11, .trials = 16, .threads = 2};
  CampaignReport baseline = CampaignRunner(in_memory).run(scenarios);

  CampaignConfig journaled = in_memory;
  journaled.journal_dir = dir.path;
  CampaignReport streamed = CampaignRunner(journaled).run(scenarios);

  // The runner's report holds aggregates only — no resident trial rows —
  // and those aggregates are byte-identical to the in-memory fold.
  for (const ScenarioAggregate& agg : streamed.scenarios) {
    EXPECT_TRUE(agg.results.empty());
  }
  EXPECT_EQ(streamed.to_json(/*include_trials=*/false),
            baseline.to_json(/*include_trials=*/false));

  // The journal holds the full campaign: read_report rebuilds per-trial
  // rows byte-identical to the uninterrupted in-memory report.
  CampaignReport rebuilt = store::read_report(dir.path);
  EXPECT_EQ(rebuilt.to_json(), baseline.to_json());
  EXPECT_EQ(rebuilt.to_table(), baseline.to_table());
}

TEST(TrialJournal, ResumeExecutesOnlyMissingTrialsAndReportIsIdentical) {
  auto scenarios = two_synthetic_scenarios();
  const u32 trials = 8;
  CampaignReport baseline =
      CampaignRunner({.seed = 42, .trials = trials, .threads = 1})
          .run(scenarios);

  for (u32 threads : {1u, 8u}) {
    TempJournalDir dir("resume_t" + std::to_string(threads));
    // Journal K of N trials by hand — exactly what a killed run leaves
    // behind: scenario 0 has trials {0,1,2}, scenario 1 has {1,5}.
    store::JournalMeta meta =
        store::JournalMeta::describe(42, trials, scenarios);
    {
      store::ShardWriter w(dir.path, meta, 0);
      const std::pair<u32, u32> done[] = {{0, 0}, {0, 1}, {0, 2}, {1, 1},
                                          {1, 5}};
      for (auto [s, t] : done) {
        obs::FlightRecorder flight;
        w.append(s, execute_trial(scenarios[s], 42, t, flight));
      }
      w.close();
    }

    CampaignConfig cfg{.seed = 42, .trials = trials, .threads = threads};
    cfg.journal_dir = dir.path;
    cfg.resume = true;
    CampaignRunner runner(cfg);
    std::atomic<u32> executed{0};
    runner.set_progress(
        [&](const ScenarioSpec&, const TrialResult&) { executed++; });
    CampaignReport resumed = runner.run(scenarios);

    // Only the 2*8 - 5 missing trials ran; journaled ones were skipped.
    EXPECT_EQ(executed.load(), 2 * trials - 5);
    EXPECT_EQ(resumed.to_json(/*include_trials=*/false),
              baseline.to_json(/*include_trials=*/false));
    EXPECT_EQ(store::read_report(dir.path).to_json(), baseline.to_json());
  }
}

TEST(TrialJournal, KilledRunWithTornTailResumesToIdenticalReport) {
  TempJournalDir dir("kill");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig cfg{.seed = 77, .trials = 8, .threads = 1};
  CampaignReport baseline = CampaignRunner(cfg).run(scenarios);

  cfg.journal_dir = dir.path;
  (void)CampaignRunner(cfg).run(scenarios);
  // Simulate SIGKILL mid-append: tear the tail of the single shard.
  const std::string shard = dir.path + "/" + store::shard_filename(0);
  fs::resize_file(shard, fs::file_size(shard) - 5);

  cfg.resume = true;
  CampaignRunner resumer(cfg);
  std::atomic<u32> executed{0};
  resumer.set_progress(
      [&](const ScenarioSpec&, const TrialResult&) { executed++; });
  CampaignReport resumed = resumer.run(scenarios);

  EXPECT_EQ(executed.load(), 1u);  // exactly the torn trial re-ran
  EXPECT_EQ(resumed.to_json(false), baseline.to_json(false));
  EXPECT_EQ(store::read_report(dir.path).to_json(), baseline.to_json());
}

TEST(TrialJournal, ResumeOfCompleteJournalExecutesNothing) {
  TempJournalDir dir("noop");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig cfg{.seed = 5, .trials = 4, .threads = 2};
  cfg.journal_dir = dir.path;
  CampaignReport first = CampaignRunner(cfg).run(scenarios);

  cfg.resume = true;
  CampaignRunner again(cfg);
  std::atomic<u32> executed{0};
  again.set_progress(
      [&](const ScenarioSpec&, const TrialResult&) { executed++; });
  CampaignReport second = again.run(scenarios);
  EXPECT_EQ(executed.load(), 0u);
  EXPECT_EQ(second.to_json(false), first.to_json(false));
}

TEST(TrialJournal, ResumeRejectsMismatchedCampaigns) {
  TempJournalDir dir("mismatch");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig cfg{.seed = 1, .trials = 4, .threads = 1};
  cfg.journal_dir = dir.path;
  (void)CampaignRunner(cfg).run(scenarios);

  // Same directory, different campaign seed.
  CampaignConfig other = cfg;
  other.resume = true;
  other.seed = 2;
  EXPECT_THROW((void)CampaignRunner(other).run(scenarios),
               std::runtime_error);

  // Different trial count.
  other = cfg;
  other.resume = true;
  other.trials = 8;
  EXPECT_THROW((void)CampaignRunner(other).run(scenarios),
               std::runtime_error);

  // Different scenario set.
  other = cfg;
  other.resume = true;
  auto renamed = two_synthetic_scenarios();
  renamed[1].name = "synthetic/renamed";
  EXPECT_THROW((void)CampaignRunner(other).run(renamed), std::runtime_error);

  // And a dirty directory without resume is always an error.
  EXPECT_THROW((void)CampaignRunner(cfg).run(scenarios), std::runtime_error);
}

TEST(TrialJournal, OversizedErrorStringsAreClippedNotWedged) {
  // A >1 MiB exception message must not produce a frame the readers
  // reject as corrupt — that would hide every later record in the shard
  // and make the campaign unresumable (scan re-runs the trial, appends
  // the same oversized frame, fails identically forever).
  TempJournalDir dir("bigerr");
  auto scenarios = two_synthetic_scenarios();
  store::JournalMeta meta = store::JournalMeta::describe(1, 4, scenarios);
  TrialResult big;
  big.trial = 0;
  big.seed = 9;
  big.error = std::string(store::kMaxErrorBytes + 4096, 'e');
  TrialResult after;
  after.trial = 1;
  after.seed = 10;
  after.success = true;
  {
    store::ShardWriter w(dir.path, meta, 0);
    w.append(0, big);
    w.append(0, after);
    w.close();
  }
  store::JournalScan scan = store::scan_journal(dir.path);
  EXPECT_EQ(scan.records, 2u);  // the record after the big one survives
  store::JournalMerge merge(dir.path);
  store::JournalRecord rec;
  ASSERT_TRUE(merge.next(rec));
  EXPECT_EQ(rec.result.error.size(), store::kMaxErrorBytes);
  ASSERT_TRUE(merge.next(rec));
  expect_identical(rec.result, after);
}

TEST(TrialJournal, DuplicateScenarioNamesAreRejectedBeforeAnyTrialRuns) {
  // Records are keyed by scenario-name hash: a duplicate name would make
  // the journal unreadable only after every trial already executed. The
  // journaled runner must reject it up front instead.
  TempJournalDir dir("dupname");
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back(synthetic_scenario("synthetic/same"));
  scenarios.push_back(synthetic_scenario("synthetic/same"));
  CampaignConfig cfg{.seed = 1, .trials = 2, .threads = 1};
  cfg.journal_dir = dir.path;
  CampaignRunner runner(cfg);
  std::atomic<u32> executed{0};
  runner.set_progress(
      [&](const ScenarioSpec&, const TrialResult&) { executed++; });
  EXPECT_THROW((void)runner.run(scenarios), std::invalid_argument);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(TrialJournal, JournaledCampaignWithoutTrialsReportsLikeInMemory) {
  // Nothing to run writes no shard, so the journaled fold has nothing to
  // read: it must still report the in-memory run's empty aggregates.
  TempJournalDir dir("notrials");
  auto scenarios = two_synthetic_scenarios();
  CampaignConfig cfg;
  cfg.seed = 3;
  cfg.trials = 0;
  cfg.threads = 1;
  const CampaignReport in_memory = CampaignRunner(cfg).run(scenarios);
  cfg.journal_dir = dir.path;
  EXPECT_EQ(CampaignRunner(cfg).run(scenarios).to_json(),
            in_memory.to_json());
  EXPECT_TRUE(store::list_shards(dir.path).empty());
}

TEST(TrialJournal, ReadReportRejectsEmptyDirectory) {
  TempJournalDir dir("empty");
  EXPECT_THROW((void)store::read_report(dir.path), std::runtime_error);
  EXPECT_THROW((void)store::read_report(dir.path + "/does-not-exist"),
               std::runtime_error);
}

}  // namespace
}  // namespace dnstime::campaign
