// Table II: run-time attack duration against different clients, executed
// as a campaign — N independent seeded trials per client across a worker
// pool, mean durations reported next to the paper's numbers.
//
// Absolute minutes depend on poll cadences (our clients poll at fixed
// 64 s / chrony backs off to 192 s); the paper's ordering — NTPd(P1)
// fastest, then NTPd(P2), chrony, openntpd (which must wait for a restart)
// — is the reproduced shape.
//
// Usage: bench_table2_attack_duration [--trials N] [--threads T] [--seed S]
//                                     [--journal DIR] [--resume]
//                                     [--out PATH] [--json]
//   stdout stays the human paper-comparison; --out PATH writes the
//   campaign report to a file (--json selects JSON format), while --json
//   alone appends the JSON report as the final stdout line (pipe through
//   `tail -1` for machine consumption, like the CI smokes do).
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "campaign/cli.h"
#include "campaign/runner.h"

using namespace dnstime;

int main(int argc, char** argv) {
  campaign::CliOptions defaults;
  defaults.config.trials = 1;  // the paper's lab ran each client once
  campaign::CliOptions opts = campaign::parse_cli(argc, argv, defaults);
  if (!opts.ok) return 2;

  auto scenarios = campaign::ScenarioRegistry::builtin().select("table2/");
  bench::header("Table II - Run-time attack duration against clients");
  campaign::CampaignReport report;
  try {
    report = campaign::CampaignRunner(opts.config).run(scenarios);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  struct Row {
    const char* scenario;
    const char* display;
    const char* paper;
  };
  const Row rows[] = {
      {"table2/ntpd-p2", "NTPd     P2 (refid discovery)", "47 minutes"},
      {"table2/ntpd-p1", "NTPd     P1 (known server list)", "17 minutes"},
      {"table2/openntpd", "openntpd P1 (restart-assisted)", "84 minutes"},
      {"table2/chrony", "chrony   P1 (known server list)", "57 minutes"},
  };
  double p1_duration = 0, p2_duration = 0;
  for (const Row& r : rows) {
    const campaign::ScenarioAggregate* agg = nullptr;
    for (const auto& s : report.scenarios) {
      if (s.name == r.scenario) agg = &s;
    }
    if (agg == nullptr || agg->successes == 0) {
      bench::row(r.display, r.paper, "FAILED");
      continue;
    }
    bench::row(r.display, r.paper, bench::minutes(agg->duration_mean_s));
    if (std::strcmp(r.scenario, "table2/ntpd-p1") == 0) {
      p1_duration = agg->duration_mean_s;
    } else if (std::strcmp(r.scenario, "table2/ntpd-p2") == 0) {
      p2_duration = agg->duration_mean_s;
    }
  }
  std::printf(
      "\n  Shape check: P2 (one-upstream-at-a-time discovery) must take\n"
      "  longer than P1 (flood everything): P2/P1 = %.1fx (paper: 2.8x)\n",
      p1_duration > 0 ? p2_duration / p1_duration : 0.0);
  std::printf(
      "\n  campaign: seed=%llu, %u trial(s)/scenario; success rates and\n"
      "  duration quantiles:\n\n%s",
      static_cast<unsigned long long>(report.seed),
      report.trials_per_scenario, report.to_table().c_str());
  if ((!opts.out.empty() || opts.json) &&
      !campaign::write_report(opts, report)) {
    return 1;
  }
  return 0;
}
