// The campaign engine's two contracts: determinism under parallelism
// (same seed => byte-identical report at any thread count) and stop
// conditions (a trial that cannot succeed ends at its deadline, reported
// as a failure rather than hanging or throwing).
#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "campaign/cli.h"
#include "campaign/trial.h"

namespace dnstime::campaign {
namespace {

/// A cheap custom scenario: each trial derives a pseudo-measurement from
/// its seed, so aggregate values exercise the whole report path without
/// building a World.
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
    return r;
  };
  return spec;
}

std::vector<ScenarioSpec> mixed_scenarios() {
  // One real end-to-end pipeline (boot-time: the fastest World-backed
  // recipe), one run-time attack, one synthetic scenario.
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back(boot_time_scenario());
  scenarios.push_back(table2_scenario(ClientKind::kNtpdKnownList));
  scenarios.push_back(synthetic_scenario("synthetic/mc"));
  return scenarios;
}

TEST(CampaignRunner, ReportIsByteIdenticalAcrossThreadCounts) {
  auto scenarios = mixed_scenarios();
  CampaignConfig one_thread{.seed = 42, .trials = 4, .threads = 1};
  CampaignConfig eight_threads{.seed = 42, .trials = 4, .threads = 8};
  CampaignReport serial = CampaignRunner(one_thread).run(scenarios);
  CampaignReport parallel = CampaignRunner(eight_threads).run(scenarios);

  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_table(), parallel.to_table());
  // And the campaign is not vacuous: the real attacks succeed.
  EXPECT_GT(serial.scenarios[0].successes, 0u);
  EXPECT_GT(serial.scenarios[1].successes, 0u);
}

TEST(CampaignRunner, DifferentSeedsGiveDifferentResults) {
  std::vector<ScenarioSpec> scenarios{synthetic_scenario("synthetic/mc")};
  CampaignReport a =
      CampaignRunner({.seed = 1, .trials = 8, .threads = 2}).run(scenarios);
  CampaignReport b =
      CampaignRunner({.seed = 2, .trials = 8, .threads = 2}).run(scenarios);
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(CampaignRunner, TrialSeedDependsOnNameNotPosition) {
  ScenarioSpec spec = synthetic_scenario("synthetic/mc");
  u64 seed = CampaignRunner::trial_seed(7, spec, 3);
  EXPECT_EQ(seed, CampaignRunner::trial_seed(7, spec, 3));
  EXPECT_NE(seed, CampaignRunner::trial_seed(7, spec, 4));
  EXPECT_NE(seed, CampaignRunner::trial_seed(8, spec, 3));
  ScenarioSpec other = synthetic_scenario("synthetic/other");
  EXPECT_NE(seed, CampaignRunner::trial_seed(7, other, 3));
}

TEST(CampaignRunner, StopConditionTimesOutAgainstHardenedResolver) {
  // A resolver that drops fragments defeats the poisoning, so no trial can
  // ever succeed: every trial must end at the deadline as a clean failure.
  ScenarioSpec spec = boot_time_scenario();
  spec.name = "boot-time/hardened";
  spec.world.resolver_stack.accept_fragments = false;
  spec.stop.deadline = sim::Duration::minutes(10);
  CampaignReport report =
      CampaignRunner({.seed = 5, .trials = 3, .threads = 2}).run({spec});

  const ScenarioAggregate& agg = report.scenarios[0];
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_EQ(agg.successes, 0u);
  EXPECT_EQ(agg.errors, 0u);
  for (const TrialResult& r : agg.results) {
    EXPECT_FALSE(r.success);
    EXPECT_TRUE(r.error.empty());
    EXPECT_DOUBLE_EQ(r.duration_s, 600.0);  // capped at the deadline
  }
}

TEST(CampaignRunner, ThrowingTrialIsRecordedNotPropagated) {
  ScenarioSpec spec;
  spec.name = "synthetic/throws";
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&,
                     const TrialContext&) -> TrialResult {
    throw std::runtime_error("boom");
  };
  CampaignReport report =
      CampaignRunner({.seed = 1, .trials = 2, .threads = 2}).run({spec});
  EXPECT_EQ(report.scenarios[0].errors, 2u);
  EXPECT_EQ(report.scenarios[0].successes, 0u);
  EXPECT_EQ(report.scenarios[0].results[0].error, "boom");
}

TEST(CampaignRunner, ResultsArriveInTrialOrderRegardlessOfScheduling) {
  std::vector<ScenarioSpec> scenarios{synthetic_scenario("synthetic/mc")};
  CampaignReport report =
      CampaignRunner({.seed = 9, .trials = 16, .threads = 8}).run(scenarios);
  const auto& results = report.scenarios[0].results;
  ASSERT_EQ(results.size(), 16u);
  for (u32 i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].trial, i);
    EXPECT_EQ(results[i].seed,
              CampaignRunner::trial_seed(9, scenarios[0], i));
  }
}

TEST(ScenarioRegistry, BuiltinCataloguesPaperScenariosAndSweeps) {
  ScenarioRegistry reg = ScenarioRegistry::builtin();
  for (const char* name :
       {"table2/ntpd-p1", "table2/ntpd-p2", "table2/chrony",
        "table2/openntpd", "boot-time/ntpd", "chronos/pool-freeze",
        "sweep/mtu-296", "sweep/pool-16", "sweep/ratelimit-38",
        "sweep/ttl-150", "table1/ntpd-boot", "table1/android-run",
        "sec6/n-5", "sec6/n-12"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.select("table2/").size(), 4u);
  EXPECT_EQ(reg.select("sweep/").size(), 16u);
  // Seven clients at boot time, all but one-shot ntpdate at run time.
  EXPECT_EQ(reg.select("table1/").size(), 13u);
  EXPECT_EQ(reg.select("sec6/").size(), 3u);
  EXPECT_EQ(reg.select("").size(), reg.all().size());
  EXPECT_THROW(reg.add(table2_scenario(ClientKind::kChrony)),
               std::invalid_argument);
}

// perfbench's four workloads (BENCHMARK.json) run builtin().select(p) for
// these six prefixes. A scenario registered under one of them silently
// changes what that workload measures and breaks comparison with every
// earlier run, so each selection is pinned by name: a new scenario needs
// a prefix of its own (as table1/ and sec6/ have).
TEST(ScenarioRegistry, PerfbenchWorkloadSelectionsArePinned) {
  const std::pair<const char*, std::vector<std::string>> workloads[] = {
      {"table2/",
       {"table2/ntpd-p2", "table2/ntpd-p1", "table2/openntpd",
        "table2/chrony"}},
      {"chronos/", {"chronos/pool-freeze"}},
      {"population/",
       {"population/shared-resolver-100k", "population/ratelimit-herd-100k"}},
      {"sweep/mtu-",
       {"sweep/mtu-296", "sweep/mtu-552", "sweep/mtu-1280", "sweep/mtu-1500"}},
      {"sweep/pool-",
       {"sweep/pool-8", "sweep/pool-16", "sweep/pool-32", "sweep/pool-64"}},
      {"sweep/ttl-",
       {"sweep/ttl-75", "sweep/ttl-150", "sweep/ttl-300", "sweep/ttl-600"}},
  };
  const ScenarioRegistry reg = ScenarioRegistry::builtin();
  for (const auto& [prefix, expected] : workloads) {
    std::vector<std::string> names;
    for (const ScenarioSpec& s : reg.select(prefix)) names.push_back(s.name);
    EXPECT_EQ(names, expected) << prefix;
  }
}

TEST(CampaignTrial, RestartOfANonOpenntpdVictimIsATrialError) {
  ScenarioSpec spec = table2_scenario(ClientKind::kChrony);
  spec.stop.restart_after = sim::Duration::minutes(60);
  CampaignReport report =
      CampaignRunner({.seed = 1, .trials = 1, .threads = 1}).run({spec});
  EXPECT_EQ(report.scenarios[0].errors, 1u);
  EXPECT_NE(report.scenarios[0].results[0].error.find("openntpd"),
            std::string::npos);
}

TEST(ScenarioRegistry, SweepsVaryTheAdvertisedParameter)  {
  auto mtus = mtu_sweep({296, 1500});
  EXPECT_EQ(mtus[0].world.attack_mtu, 296);
  EXPECT_EQ(mtus[1].world.attack_mtu, 1500);
  auto ttls = ttl_sweep({75, 600});
  EXPECT_EQ(ttls[0].world.pool_a_ttl, 75u);
  EXPECT_EQ(ttls[1].world.pool_a_ttl, 600u);
  auto rates = rate_limit_sweep({0.2});
  EXPECT_DOUBLE_EQ(rates[0].world.rate_limit_fraction, 0.2);
  EXPECT_EQ(rates[0].attack, AttackKind::kRunTime);
}

CliOptions parse(std::vector<std::string> args, bool scenario_flags = false) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data(), CliOptions{},
                   scenario_flags);
}

TEST(CampaignCli, ParsesValuesAndRejectsBadFlags) {
  CliOptions opts = parse({"--trials", "8", "--threads", "2", "--seed", "7"});
  EXPECT_TRUE(opts.ok);
  EXPECT_EQ(opts.config.trials, 8u);
  EXPECT_EQ(opts.config.threads, 2u);
  EXPECT_EQ(opts.config.seed, 7u);

  // A typo'd flag must be an error, not a silent fall-through to defaults.
  EXPECT_FALSE(parse({"--trails", "8"}).ok);
  // A value-less flag must be an error too.
  EXPECT_FALSE(parse({"--trials"}).ok);
  // --filter is only valid when scenario flags are enabled.
  EXPECT_FALSE(parse({"--filter", "sweep/"}).ok);
  CliOptions sweep = parse({"--filter", "sweep/", "--json"}, true);
  EXPECT_TRUE(sweep.ok);
  EXPECT_EQ(sweep.filter, "sweep/");
  EXPECT_TRUE(sweep.json);
}

TEST(CampaignCli, RejectsMalformedNumbersInsteadOfZeroingThem) {
  // std::atoi used to turn every one of these into a silent 0 (or wrap
  // negatives); each must be a reported error now.
  EXPECT_FALSE(parse({"--trials", "garbage"}).ok);
  EXPECT_FALSE(parse({"--trials", "8x"}).ok);   // trailing junk
  EXPECT_FALSE(parse({"--trials", "-3"}).ok);   // negative would wrap
  EXPECT_FALSE(parse({"--trials", "+3"}).ok);   // sign is not a digit
  EXPECT_FALSE(parse({"--trials", " 8"}).ok);   // leading whitespace
  EXPECT_FALSE(parse({"--trials", ""}).ok);
  EXPECT_FALSE(parse({"--trials", "0"}).ok);    // a zero-trial campaign
  EXPECT_FALSE(parse({"--trials", "4294967296"}).ok);   // > u32 max
  EXPECT_FALSE(parse({"--threads", "1e3"}).ok);
  EXPECT_FALSE(parse({"--seed", "0x10"}).ok);
  EXPECT_FALSE(parse({"--seed", "18446744073709551616"}).ok);  // > u64 max

  EXPECT_TRUE(parse({"--trials", "4294967295"}).ok);
  EXPECT_TRUE(parse({"--threads", "0"}).ok);  // 0 threads = all cores
  CliOptions max_seed = parse({"--seed", "18446744073709551615"});
  EXPECT_TRUE(max_seed.ok);
  EXPECT_EQ(max_seed.config.seed, ~u64{0});
}

TEST(CampaignCli, ParsesJournalResumeAndOutFlags) {
  CliOptions opts = parse(
      {"--journal", "/tmp/j", "--resume", "--out", "report.json", "--json"});
  EXPECT_TRUE(opts.ok);
  EXPECT_EQ(opts.config.journal_dir, "/tmp/j");
  EXPECT_TRUE(opts.config.resume);
  EXPECT_EQ(opts.out, "report.json");
  EXPECT_TRUE(opts.json);

  // Persistence flags are part of the base set: scenario tools get them
  // too, with no bespoke flag code.
  EXPECT_TRUE(parse({"--journal", "j", "--filter", "sweep/"}, true).ok);

  EXPECT_FALSE(parse({"--resume"}).ok);   // --resume needs --journal
  EXPECT_FALSE(parse({"--journal"}).ok);  // value-less
  EXPECT_FALSE(parse({"--out"}).ok);
}

TEST(CampaignCli, RejectsInProcessFlagsWithWorkers) {
  // Worker processes run one trial at a time and keep their counters, so
  // --threads would be silently ignored and --metrics would print an empty
  // section: both are refused. Dumps and traces are written by the worker
  // that runs the trial, as a thread would.
  const std::vector<std::string> dist = {"--workers", "2", "--journal", "j"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = dist;
    args.insert(args.end(), extra.begin(), extra.end());
    return parse(args);
  };
  EXPECT_TRUE(with({}).ok);
  EXPECT_EQ(with({}).config.workers, 2u);
  EXPECT_TRUE(with({"--trace", "trace.json"}).ok);
  EXPECT_EQ(with({"--dump", "dumps"}).ok, parse({"--dump", "dumps"}).ok);
  EXPECT_FALSE(with({"--threads", "2"}).ok);
  EXPECT_FALSE(with({"--metrics"}).ok);
  EXPECT_FALSE(parse({"--workers", "2"}).ok);  // no journal
  // A single process keeps --threads and --metrics.
  EXPECT_TRUE(parse({"--workers", "1", "--threads", "2", "--metrics"}).ok);
  // The crash-recovery test hook is the one hidden flag.
  EXPECT_EQ(with({"--dist-kill-trial", "5"}).config.kill_trial, 5u);
  EXPECT_FALSE(with({"--dist-kill-trial", "x"}).ok);
  EXPECT_FALSE(with({"--dist-worker"}).ok);
}

TEST(CampaignTrial, ChronosWithZeroHonestRoundsHandsAttackerTheWholePool) {
  ScenarioSpec spec = chronos_scenario(/*honest_rounds=*/0);
  TrialContext ctx{.campaign_seed = 1, .trial = 0, .seed = 1234};
  TrialResult r = run_trial(spec, ctx);
  EXPECT_TRUE(r.error.empty());
  EXPECT_TRUE(r.success);
  // Poisoning before any honest round: the pool is (almost) all attacker.
  EXPECT_GT(r.metric, 2.0 / 3.0);
}

TEST(CampaignReport, JsonEscapesControlCharactersInErrors) {
  ScenarioSpec spec;
  spec.name = "synthetic/ctl";
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&,
                     const TrialContext&) -> TrialResult {
    throw std::runtime_error("parse failed:\tline 3\r");
  };
  CampaignReport report =
      CampaignRunner({.seed = 1, .trials = 1, .threads = 1}).run({spec});
  std::string json = report.to_json();
  EXPECT_NE(json.find("parse failed:\\u0009line 3\\u000d"),
            std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

TEST(CampaignRunner, ThrowingProgressCallbackSurfacesAfterRun) {
  // A progress callback that throws must not std::terminate the process
  // (it used to escape a worker thread); the first exception is rethrown
  // from run() after the pool joins.
  std::vector<ScenarioSpec> scenarios{synthetic_scenario("synthetic/mc")};
  CampaignRunner runner({.seed = 3, .trials = 4, .threads = 2});
  std::atomic<int> calls{0};
  runner.set_progress([&](const ScenarioSpec&, const TrialResult& r) {
    // The result must already be fully stored when we observe it.
    EXPECT_FALSE(r.seed == 0);
    if (++calls == 2) throw std::runtime_error("progress boom");
  });
  EXPECT_THROW((void)runner.run(scenarios), std::runtime_error);
  EXPECT_GE(calls.load(), 2);
}

TEST(CampaignReport, NonFiniteMetricsEmitNullNotNan) {
  // %.6g prints nan/inf, which is not JSON: one non-finite trial metric
  // used to corrupt the whole report for every downstream parser.
  ScenarioSpec spec = synthetic_scenario("synthetic/nonfinite");
  std::vector<TrialResult> results(2);
  results[0].trial = 0;
  results[0].success = true;
  results[0].duration_s = std::numeric_limits<double>::infinity();
  results[0].metric = std::numeric_limits<double>::quiet_NaN();
  results[1].trial = 1;
  results[1].metric = 0.25;

  CampaignReport report;
  report.seed = 1;
  report.trials_per_scenario = 2;
  report.scenarios.push_back(ScenarioAggregate::from_results(spec, results));
  std::string json = report.to_json();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"metric\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration_s\":null"), std::string::npos) << json;
}

TEST(CampaignReport, AggregatesAndJsonShape) {
  ScenarioSpec spec = synthetic_scenario("synthetic/agg");
  std::vector<TrialResult> results(4);
  for (u32 i = 0; i < 4; ++i) {
    results[i].trial = i;
    results[i].success = i < 3;
    results[i].duration_s = 100.0 * (i + 1);
    results[i].metric = 0.5;
    results[i].fragments_planted = 10;
  }
  ScenarioAggregate agg = ScenarioAggregate::from_results(spec, results);
  EXPECT_EQ(agg.successes, 3u);
  EXPECT_DOUBLE_EQ(agg.success_rate, 0.75);
  EXPECT_DOUBLE_EQ(agg.duration_mean_s, 200.0);  // over successes only
  EXPECT_DOUBLE_EQ(agg.metric_mean, 0.5);
  EXPECT_EQ(agg.fragments_total, 40u);

  CampaignReport report;
  report.seed = 3;
  report.trials_per_scenario = 4;
  report.scenarios.push_back(agg);
  std::string json = report.to_json();
  EXPECT_NE(json.find("\"name\":\"synthetic/agg\""), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\":0.75"), std::string::npos);
  // Compact form omits per-trial results but keeps aggregates.
  std::string compact = report.to_json(/*include_trials=*/false);
  EXPECT_EQ(compact.find("\"results\""), std::string::npos);
  EXPECT_NE(compact.find("\"duration_mean_s\":200"), std::string::npos);
}

}  // namespace
}  // namespace dnstime::campaign
