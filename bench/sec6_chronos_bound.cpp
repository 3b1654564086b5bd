// §VI-C: the Chronos poisoning window. Sweep the number of honest hourly
// queries N completed before the poisoning lands; the attack must succeed
// for N <= 11 and fail for N >= 12 (2/3 * (89 + 4N) <= 89).
// Closed form plus full end-to-end runs at the boundary, executed as a
// campaign over the registry's sec6/ scenarios.
//
// Takes every campaign flag (campaign/cli.h); --out/--json write the
// report as bench_table2_attack_duration does.
#include <cstdio>
#include <cstring>

#include "attack/chronos_attack.h"
#include "bench_util.h"
#include "campaign/cli.h"
#include "campaign/runner.h"

using namespace dnstime;

int main(int argc, char** argv) {
  campaign::CliOptions defaults;
  defaults.config.trials = 1;
  campaign::CliOptions opts = campaign::parse_cli(argc, argv, defaults);
  if (!opts.ok) return 2;

  bench::header(
      "Sec. VI-C - Chronos poisoning window (89 records, TTL > 24h)");
  campaign::CampaignReport report;
  try {
    report = campaign::CampaignRunner(opts.config)
                 .run(campaign::ScenarioRegistry::builtin().select("sec6/"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  std::printf("  Closed form: attacker wins iff N <= %d (paper: N <= 11)\n\n",
              attack::ChronosAttack::max_tolerable_honest_rounds(89));
  std::printf("  %3s | %9s | %12s | %s\n", "N", "pool mix",
              "atk fraction", "attacker wins (closed form)");
  for (int n = 0; n <= 23; ++n) {
    double frac = 89.0 / (89.0 + 4.0 * n);
    std::printf("  %3d | 89 + %3d | %10.1f%% | %s\n", n, 4 * n, frac * 100,
                attack::ChronosAttack::attacker_wins(n) ? "yes" : "no");
  }

  std::printf("\n  End-to-end boundary validation (full simulation):\n");
  for (const campaign::ScenarioAggregate& s : report.scenarios) {
    // sec6/n-<N>; the offset is the mean over shifted trials (0 if none).
    std::printf("    N=%2s: victim clock offset %+8.1f s  (%s)\n",
                s.name.c_str() + std::strlen("sec6/n-"), s.shift_mean_s,
                s.successes == s.trials ? "SHIFTED -- attack succeeded"
                : s.successes == 0      ? "held -- Chronos refused the update"
                                        : "mixed across trials");
  }
  std::printf(
      "\n  'The chances of a successful attack against Chronos are actually\n"
      "  higher than against a traditional NTP client during boot-time,\n"
      "  since the attacker effectively has 12 tries in 24 hours.'\n");
  return campaign::write_report(opts, report) ? 0 : 1;
}
