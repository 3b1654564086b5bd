// Scenario example: a multi-scenario parameter sweep on the campaign
// engine — every sweep point is N independent seeded trials fanned out
// over a worker pool, aggregated into one deterministic report.
//
// Usage: example_campaign_sweep [--trials N] [--threads T] [--seed S]
//                               [--journal DIR] [--resume] [--out PATH]
//                               [--filter PREFIX] [--json] [--workers N]
//   --filter selects scenarios by name prefix (default "sweep/");
//   --json prints the machine-readable report instead of the table;
//   --out writes the report to a file instead of stdout;
//   --journal streams every trial into an on-disk shard journal and
//   --resume continues a journaled campaign that was killed partway;
//   --workers N fans the campaign out over N worker processes (requires
//   --journal) — the report stays byte-identical to a 1-process run.
#include <cstdio>
#include <string>

#include "campaign/cli.h"
#include "campaign/runner.h"

using namespace dnstime;

int main(int argc, char** argv) {
  campaign::CliOptions defaults;
  defaults.config.trials = 8;
  defaults.filter = "sweep/";
  campaign::CliOptions opts =
      campaign::parse_cli(argc, argv, defaults, /*scenario_flags=*/true);
  if (!opts.ok) return 2;

  auto registry = campaign::ScenarioRegistry::builtin();
  auto scenarios = registry.select(opts.filter);
  if (scenarios.empty()) {
    std::fprintf(stderr, "no scenarios match prefix '%s'\n",
                 opts.filter.c_str());
    return 2;
  }

  // Banner and progress go to stderr: with --json, stdout is exactly one
  // parseable report.
  std::fprintf(stderr, "campaign: %zu scenario(s) x %u trial(s), seed %llu\n\n",
               scenarios.size(), opts.config.trials,
               static_cast<unsigned long long>(opts.config.seed));
  campaign::CampaignReport report;
  try {
    // With --workers the trials run in child processes, which do not call
    // back here; their per-trial progress lives in the --progress
    // directory (see tools/campaign_watch).
    campaign::CampaignRunner runner(opts.config);
    u32 done = 0;
    const u32 total = static_cast<u32>(scenarios.size()) * opts.config.trials;
    runner.set_progress([&](const campaign::ScenarioSpec& spec,
                            const campaign::TrialResult& r) {
      std::fprintf(stderr, "  [%3u/%3u] %-24s trial %u: %s\n", ++done, total,
                   spec.name.c_str(), r.trial,
                   !r.error.empty() ? "ERROR"
                   : r.success      ? "ok"
                                    : "no-shift");
    });
    report = runner.run(scenarios);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  if (opts.out.empty() && !opts.json) {
    std::printf("%s\n", report.to_table().c_str());
    std::printf(
        "The sweep's shape mirrors the paper: fragmentation needs a small\n"
        "attack MTU, the run-time attack leans on the rate-limiting\n"
        "fraction, and shorter pool TTLs shrink the poisoning window.\n");
  }
  return campaign::write_report(opts, report) ? 0 : 1;
}
