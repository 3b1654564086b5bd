// Table I: attack scenarios for popular NTP clients, executed as a
// campaign over the registry's table1/ scenarios.
//
// For every client model, run (a) a boot-time scenario — resolver poisoned
// before the client starts — and (b) a run-time scenario — client
// synchronised honestly, then delegation poisoned and associations
// removed via rate-limit abuse. A scenario "applies" if the victim clock
// ends up at the attacker's -500 s shift.
//
// Takes every campaign flag (campaign/cli.h); --out/--json write the
// report as bench_table2_attack_duration does.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "campaign/cli.h"
#include "campaign/runner.h"

using namespace dnstime;

namespace {

/// "yes" when every trial shifted the victim, "no" when none did, else
/// the success rate; "n/a" for a cell Table I does not have.
std::string cell(const campaign::CampaignReport& report,
                 const std::string& scenario) {
  for (const auto& s : report.scenarios) {
    if (s.name != scenario) continue;
    if (s.successes == s.trials) return "yes";
    return s.successes == 0 ? "no" : bench::pct(s.success_rate, 0);
  }
  return "n/a";
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CliOptions defaults;
  defaults.config.trials = 1;  // the paper's lab ran each client once
  campaign::CliOptions opts = campaign::parse_cli(argc, argv, defaults);
  if (!opts.ok) return 2;

  bench::header(
      "Table I - Attack scenarios for popular NTP clients\n"
      "(pool.ntp.org usage shares from Rytilahti et al. [30], as cited)");
  campaign::CampaignReport report;
  try {
    report = campaign::CampaignRunner(opts.config)
                 .run(campaign::ScenarioRegistry::builtin().select("table1/"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  struct Row {
    const char* stem;  ///< scenarios "table1/<stem>-{boot,run}"
    const char* client;
    const char* usage;
    const char* paper_boot;
    const char* paper_run;
  };
  const Row rows[] = {
      {"ntpd", "NTPd", "26.4%", "yes", "yes"},
      {"openntpd", "openntpd", "4.4%", "yes", "no"},
      {"chrony", "chrony", "4.8%", "yes", "yes"},
      {"ntpdate", "ntpdate", "20.0%", "yes", "n/a (one-shot)"},
      {"android", "Android", "14.0%", "yes", "yes"},
      {"ntpclient", "ntpclient", "1.2%", "yes", "no"},
      {"timesyncd", "systemd", "(not listed)", "yes", "yes"},
  };

  std::printf("  %-12s %-12s | %-22s | %-22s\n", "client", "pool usage",
              "boot-time (paper/meas)", "run-time (paper/meas)");
  for (const Row& r : rows) {
    const std::string name = std::string("table1/") + r.stem;
    std::printf("  %-12s %-12s | %-10s / %-9s | %-10s / %-9s\n", r.client,
                r.usage, r.paper_boot, cell(report, name + "-boot").c_str(),
                r.paper_run, cell(report, name + "-run").c_str());
  }
  std::printf(
      "\n  Expectation: every client falls at boot time; only clients that\n"
      "  re-query DNS at run time (ntpd, chrony, Android, systemd) fall at\n"
      "  run time. openntpd/ntpclient stall instead of re-querying.\n");
  return campaign::write_report(opts, report) ? 0 : 1;
}
