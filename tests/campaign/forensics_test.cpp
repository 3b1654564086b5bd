// Forensics contracts of the campaign runner: a failing trial produces a
// deterministic attack-narrative dump (byte-identical at any thread
// count, and to a replay of the trial on its own), --dump-on predicates
// select which trials dump, and the live progress stream records every
// executed trial with Wilson-interval success rates.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/trial.h"
#include "common/stats.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace dnstime::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the gtest temp root, wiped on construction so a
/// crashed previous run cannot leak state into this one.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::path(::testing::TempDir()) / ("dnstime_forensics_" + tag))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A cheap scenario that drives the installed flight recorder (and
/// tracer, when one is installed) through a deterministic event pattern
/// derived from the trial seed — the dump and trace pipelines exercised
/// end to end without building a World.
ScenarioSpec forensic_scenario(std::string name) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&, const TrialContext& ctx) {
    if (obs::TraceRecorder* trace = obs::current_trace()) {
      trace->begin(1000, "trial", "poison");
      trace->instant(2000, "attack", "spray", ctx.seed & 0xFFFF);
      trace->end(4000, "trial", "poison");
    }
    if (obs::FlightRecorder* flight = obs::current_flight()) {
      flight->phase(1000, "poison");
      flight->pmtu_reduced(1500, OriginModule::kVictim, 296, 0x0A350001);
      const Origin spoofed = flight->stamp(
          2000, OriginModule::kAttacker, Origin::kSpoofed);
      flight->spoofed_inject(2000, spoofed,
                             static_cast<u16>(ctx.seed & 0xFFFF), 8);
      Origin merged = spoofed;
      merged.flags |= Origin::kReassembled;
      flight->reassembled(3000, merged, 1172, 5);
      flight->cache_insert(4000, merged, "pool.ntp.org");
    }
    Rng rng{ctx.seed};
    TrialResult r;
    r.metric = rng.uniform01();
    r.duration_s = 60.0 + 540.0 * rng.uniform01();
    r.success = rng.chance(0.5);
    r.clock_shift_s = r.success ? -500.0 : 0.0;
    return r;
  };
  return spec;
}

/// Throws "boom" on exactly one trial so predicates can tell the failing
/// trial from the healthy ones.
ScenarioSpec throwing_scenario(std::string name, u32 failing_trial) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [failing_trial](const ScenarioSpec&,
                                  const TrialContext& ctx) -> TrialResult {
    if (ctx.trial == failing_trial) throw std::runtime_error("boom");
    TrialResult r;
    r.success = true;
    r.duration_s = 1.0;
    r.clock_shift_s = -500.0;
    return r;
  };
  return spec;
}

#if DNSTIME_OBS

TEST(CampaignForensics, InjectedErrorDumpsANarrativeForThatTrialOnly) {
  TempDir dir("err");
  CampaignConfig config{.seed = 11, .trials = 3, .threads = 2};
  config.dump_dir = dir.path;
  config.dump_on = "auto";
  CampaignReport report =
      CampaignRunner(config).run({throwing_scenario("forensic/err", 1)});
  EXPECT_EQ(report.scenarios[0].errors, 1u);

  // '/' in the scenario name sanitises to '_' in the file name.
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "forensic_err-t0.json"));
  EXPECT_FALSE(fs::exists(fs::path(dir.path) / "forensic_err-t2.json"));
  const fs::path dump = fs::path(dir.path) / "forensic_err-t1.json";
  ASSERT_TRUE(fs::exists(dump));

  const std::string json = slurp(dump);
  EXPECT_NE(json.find("\"narrative\":{"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"forensic/err\""), std::string::npos);
  EXPECT_NE(json.find("\"trial\":1"), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"boom\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"error\""), std::string::npos);
  // The thrown trial never started the attack: the chain broke at stage 0.
  EXPECT_NE(json.find("\"reached\":null"), std::string::npos);
  EXPECT_NE(json.find("\"broke_at\":\"pmtu-reduced\""), std::string::npos);
  // No trailing newline: dumps compare with cmp(1) against CLI replays.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '}');
}

TEST(CampaignForensics, DumpsAreByteIdenticalAcrossThreadCounts) {
  TempDir serial_dir("serial");
  TempDir parallel_dir("parallel");
  const auto run_with = [](const std::string& dump_dir, u32 threads) {
    CampaignConfig config{.seed = 42, .trials = 4, .threads = threads};
    config.dump_dir = dump_dir;
    config.dump_on = "always";
    return CampaignRunner(config).run(
        {forensic_scenario("forensic/det")});
  };
  CampaignReport serial = run_with(serial_dir.path, 1);
  CampaignReport parallel = run_with(parallel_dir.path, 8);
  EXPECT_EQ(serial.to_json(), parallel.to_json());

  for (u32 trial = 0; trial < 4; ++trial) {
    const std::string name =
        "forensic_det-t" + std::to_string(trial) + ".json";
    const std::string a = slurp(fs::path(serial_dir.path) / name);
    const std::string b = slurp(fs::path(parallel_dir.path) / name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
    // The narrative names the spoofed packet and the poisoned cache key.
    EXPECT_NE(a.find("\"kind\":\"spoofed-inject\""), std::string::npos);
    EXPECT_NE(a.find("\"kind\":\"cache-poisoned\""), std::string::npos);
    EXPECT_NE(a.find("\"detail\":\"pool.ntp.org\""), std::string::npos);
    EXPECT_NE(a.find("\"broke_at\":\"poisoned-answer-served\""),
              std::string::npos)
        << "chain stops where the synthetic trial stopped driving it";
  }
}

TEST(CampaignForensics, DumpPredicatesSelectWhichTrialsDump) {
  // dump-on=error keeps only the thrown trial; dump-on=attack-failed
  // keeps every unsuccessful one; a bogus predicate fails up front.
  {
    TempDir dir("pred-error");
    CampaignConfig config{.seed = 11, .trials = 3, .threads = 1};
    config.dump_dir = dir.path;
    config.dump_on = "error";
    (void)CampaignRunner(config).run(
        {throwing_scenario("forensic/err", 2)});
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / "forensic_err-t2.json"));
    EXPECT_FALSE(fs::exists(fs::path(dir.path) / "forensic_err-t0.json"));
  }
  {
    TempDir dir("pred-failed");
    CampaignConfig config{.seed = 42, .trials = 8, .threads = 2};
    config.dump_dir = dir.path;
    config.dump_on = "attack-failed";
    CampaignReport report =
        CampaignRunner(config).run({forensic_scenario("forensic/det")});
    std::size_t dumps = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator(dir.path)) {
      dumps++;
    }
    EXPECT_EQ(dumps, 8u - report.scenarios[0].successes);
  }
  {
    TempDir dir("pred-bogus");
    CampaignConfig config{.seed = 1, .trials = 1, .threads = 1};
    config.dump_dir = dir.path;
    config.dump_on = "sometimes";
    EXPECT_THROW(
        (void)CampaignRunner(config).run(
            {forensic_scenario("forensic/det")}),
        std::invalid_argument);
  }
}

TEST(CampaignForensics, ReplayedTrialIsByteIdenticalToTheCampaignsFiles) {
  // execute_trial is the one trial path of the runner, the dist worker and
  // tools/trial_replay: running a single trial through it must reproduce
  // the campaign's --dump and --trace files byte for byte, for a healthy
  // trial and for a throwing one alike.
  const std::vector<ScenarioSpec> scenarios = {
      forensic_scenario("forensic/det"), throwing_scenario("forensic/err", 1)};
  const u32 trials = 2;
  for (u32 index = 0; index < scenarios.size() * trials; ++index) {
    TempDir dir("replay");
    CampaignConfig config;
    config.seed = 5;
    config.trials = trials;
    config.threads = 2;
    config.dump_dir = (fs::path(dir.path) / "dumps").string();
    config.dump_on = "always";
    config.trace_path = (fs::path(dir.path) / "trace.json").string();
    config.trace_index = index;
    (void)CampaignRunner(config).run(scenarios);

    const ScenarioSpec& spec = scenarios[index / trials];
    const u32 trial = index % trials;
    obs::FlightRecorder flight;
    obs::TraceRecorder trace;
    const TrialResult result =
        execute_trial(spec, config.seed, trial, flight, &trace);
    EXPECT_EQ(result.error, index == 3 ? "boom" : "") << index;
    const std::string dump_name =
        (index < trials ? "forensic_det-t" : "forensic_err-t") +
        std::to_string(trial) + ".json";
    EXPECT_EQ(narrative_json(flight, result),
              slurp(fs::path(config.dump_dir) / dump_name))
        << dump_name;
    EXPECT_EQ(trace.to_json(), slurp(config.trace_path)) << index;
  }
}

#else  // !DNSTIME_OBS

TEST(CampaignForensics, DumpRequestWithoutObsBuildFailsUpFront) {
  TempDir dir("no-obs");
  CampaignConfig config{.seed = 1, .trials = 1, .threads = 1};
  config.dump_dir = dir.path;
  EXPECT_THROW(
      (void)CampaignRunner(config).run({forensic_scenario("forensic/det")}),
      std::invalid_argument);
}

#endif  // DNSTIME_OBS

TEST(CampaignForensics, ProgressStreamRecordsEveryTrial) {
  TempDir dir("progress");
  const std::string progress_path =
      (fs::path(dir.path) / "progress.jsonl").string();
  CampaignConfig config{.seed = 7, .trials = 3, .threads = 2};
  config.progress_path = progress_path;
  (void)CampaignRunner(config).run({forensic_scenario("forensic/a"),
                                    forensic_scenario("forensic/b")});

  std::ifstream in(progress_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);  // 2 scenarios x 3 trials
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find("{\"scenario\":\"forensic/"), 0u) << line;
    EXPECT_NE(line.find("\"wilson_low\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"wilson_high\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"eta_s\":"), std::string::npos) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  // Writes serialise under the runner's mutex, so the final line carries
  // the completed campaign totals.
  EXPECT_NE(lines.back().find("\"campaign_done\":6,\"campaign_total\":6"),
            std::string::npos)
      << lines.back();
}

TEST(CampaignForensics, ProgressStreamNeverRendersConfidentZeroInterval) {
  // A scenario that fails every trial: the streamed Wilson upper bound
  // must stay strictly positive on every line (0/n is evidence, not
  // certainty), so no consumer — campaign_watch included — can render a
  // confident [0, 0] interval mid-run.
  TempDir dir("progress-zero");
  const std::string progress_path =
      (fs::path(dir.path) / "progress.jsonl").string();
  ScenarioSpec spec;
  spec.name = "forensic/never";
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&, const TrialContext&) {
    return TrialResult{};  // success = false
  };
  CampaignConfig config{.seed = 3, .trials = 4, .threads = 1};
  config.progress_path = progress_path;
  (void)CampaignRunner(config).run({spec});

  std::ifstream in(progress_path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    const char* key = "\"wilson_high\":";
    const std::size_t pos = line.find(key);
    ASSERT_NE(pos, std::string::npos) << line;
    char* end = nullptr;
    const char* start = line.c_str() + pos + std::strlen(key);
    const double high = std::strtod(start, &end);
    ASSERT_NE(end, start) << "wilson_high must be a number: " << line;
    EXPECT_GT(high, 0.0) << line;
    EXPECT_LE(high, 1.0) << line;
  }
  EXPECT_EQ(lines, 4u);
}

TEST(CampaignForensics, UnwritableProgressPathFailsBeforeAnyTrialRuns) {
  CampaignConfig config{.seed = 1, .trials = 1, .threads = 1};
  config.progress_path = "/nonexistent-dir/progress.jsonl";
  EXPECT_THROW(
      (void)CampaignRunner(config).run({forensic_scenario("forensic/det")}),
      std::runtime_error);
}

TEST(CampaignForensics, WilsonIntervalBracketsTheObservedRate) {
  // The degenerate contract the progress stream leans on mid-run.
  const WilsonInterval vacuous = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(vacuous.low, 0.0);
  EXPECT_DOUBLE_EQ(vacuous.high, 1.0);

  const WilsonInterval some = wilson_interval(8, 10);
  EXPECT_GT(some.low, 0.0);
  EXPECT_LT(some.low, 0.8);
  EXPECT_GT(some.high, 0.8);
  EXPECT_LE(some.high, 1.0);

  // 0/n and n/n stay inside [0, 1] but are not vacuous.
  const WilsonInterval none = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_LT(none.high, 0.5);
  const WilsonInterval all = wilson_interval(10, 10);
  EXPECT_GT(all.low, 0.5);
  EXPECT_DOUBLE_EQ(all.high, 1.0);

  // More trials at the same rate tighten the interval.
  const WilsonInterval more = wilson_interval(80, 100);
  EXPECT_GT(more.low, some.low);
  EXPECT_LT(more.high, some.high);
}

}  // namespace
}  // namespace dnstime::campaign
