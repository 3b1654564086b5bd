// Table III: probability that an NTP client is in a vulnerable state,
// depending on its number of associations m. Closed form (the paper's
// formulas) cross-validated by a Monte-Carlo campaign over the measured
// rate-limiting fraction p = 38%: each table row is one kCustom scenario
// whose trials sample independent batches, fanned out by CampaignRunner.
//
// Usage: bench_table3_probabilities [--trials N] [--threads T] [--seed S]
//                                   [--journal DIR] [--resume]
//                                   [--out PATH] [--json]
//   stdout stays the human paper-comparison; --out PATH writes the
//   campaign report to a file (--json selects JSON format), while --json
//   alone appends the JSON report as the final stdout line (pipe through
//   `tail -1` for machine consumption, like the CI smokes do).
#include <cstdio>

#include "analysis/probability.h"
#include "bench_util.h"
#include "campaign/cli.h"
#include "campaign/runner.h"

namespace {

using namespace dnstime;

constexpr int kSamplesPerTrial = 25000;

/// One scenario per Table III row: every trial estimates P2(m, n) from an
/// independent batch of kSamplesPerTrial Monte Carlo samples; the
/// campaign-level metric_mean is the pooled estimate.
campaign::ScenarioSpec row_scenario(const analysis::TableIIIRow& row) {
  campaign::ScenarioSpec spec;
  spec.name = "table3/m" + std::to_string(row.m);
  spec.attack = campaign::AttackKind::kCustom;
  const int m = row.m, n = row.n;
  spec.trial_fn = [m, n](const campaign::ScenarioSpec&,
                         const campaign::TrialContext& ctx) {
    Rng rng{ctx.seed};
    campaign::TrialResult result;
    result.metric = analysis::monte_carlo_p2(
        m, n, analysis::kMeasuredRateLimitFraction, kSamplesPerTrial, rng);
    result.success = true;
    return result;
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CliOptions defaults;
  defaults.config.seed = 2024;
  defaults.config.trials = 8;  // 8 x 25k samples per row
  campaign::CliOptions opts = campaign::parse_cli(argc, argv, defaults);
  if (!opts.ok) return 2;

  auto rows = analysis::table_iii();
  std::vector<campaign::ScenarioSpec> scenarios;
  scenarios.reserve(rows.size());
  for (const auto& row : rows) scenarios.push_back(row_scenario(row));

  bench::header(
      "Table III - P(client vulnerable) by association count m, p_rate=38%");

  // The paper's printed rows for comparison.
  const double paper_p1[] = {0.380, 0.144, 0.144, 0.055, 0.055,
                             0.021, 0.008, 0.003, 0.001};
  const double paper_p2[] = {0.380, 0.144, 0.324, 0.157, 0.284,
                             0.153, 0.078, 0.039, 0.018};

  campaign::CampaignReport report;
  try {
    report = campaign::CampaignRunner(opts.config).run(scenarios);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  std::printf("  %2s %2s | %8s %8s | %8s %8s | %10s\n", "m", "n", "P1 paper",
              "P1 ours", "P2 paper", "P2 ours", "P2 MonteCarlo");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    double mc = report.scenarios[i].metric_mean;
    std::printf("  %2d %2d | %7.1f%% %7.1f%% | %7.1f%% %7.1f%% | %9.1f%%\n",
                row.m, row.n, paper_p1[row.m - 1] * 100, row.p1 * 100,
                paper_p2[row.m - 1] * 100, row.p2 * 100, mc * 100);
  }
  std::printf(
      "\n  Shape checks: P2 >= P1 everywhere; both shrink as m grows;\n"
      "  choosing which servers to remove (P2) helps most at odd m.\n");
  if ((!opts.out.empty() || opts.json) &&
      !campaign::write_report(opts, report)) {
    return 1;
  }
  return 0;
}
