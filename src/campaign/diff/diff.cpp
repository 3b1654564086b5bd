#include "campaign/diff/diff.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/stats.h"
#include "obs/json_util.h"

namespace dnstime::campaign::diff {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// Phi^-1(0.9): converts the p50..p90 spread into a sigma estimate under
/// a normality assumption (the aggregate-only duration fallback).
constexpr double kZ90 = 1.2815515655446004;

/// Durations of the successful trials (the population every duration
/// aggregate is defined over).
std::vector<double> success_durations(const ScenarioAggregate& s) {
  std::vector<double> v;
  for (const TrialResult& r : s.results) {
    if (r.success) v.push_back(r.duration_s);
  }
  return v;
}

std::vector<double> success_shifts(const ScenarioAggregate& s) {
  std::vector<double> v;
  for (const TrialResult& r : s.results) {
    if (r.success) v.push_back(r.clock_shift_s);
  }
  return v;
}

std::vector<double> all_metrics(const ScenarioAggregate& s) {
  std::vector<double> v;
  v.reserve(s.results.size());
  for (const TrialResult& r : s.results) v.push_back(r.metric);
  return v;
}

/// A report carries usable per-trial data for a scenario only when the
/// results vector is complete — journaled-run reports serialise
/// aggregates only (results empty), and a partially doctored file must
/// not masquerade as trial-level evidence.
bool has_trials(const ScenarioAggregate& s) {
  return s.trials > 0 && s.results.size() == s.trials;
}

/// Directed metrics: +1 when a positive delta is an improvement (success
/// rate up), -1 when it is a regression (duration up = attack slower),
/// 0 for direction-less drift metrics.
MetricDelta annotate(MetricDelta d, const TestResult& t, int better_sign,
                     double alpha) {
  if (t.valid) {
    d.statistic = t.statistic;
    d.df = t.df;
    d.p = t.p;
    if (t.p < alpha) {
      // A NaN delta (a null aggregate beside real trial data) has no
      // direction to report; neither does an exactly-zero one.
      if (better_sign == 0 || std::isnan(d.delta) || d.delta == 0.0) {
        d.verdict = Verdict::kShifted;
      } else {
        const bool improved = (d.delta > 0.0) == (better_sign > 0);
        d.verdict = improved ? Verdict::kImproved : Verdict::kRegressed;
      }
    }
  } else {
    d.test = "none";
    d.p = kNaN;
  }
  return d;
}

MetricDelta untested(std::string metric, double baseline, double candidate) {
  MetricDelta d;
  d.metric = std::move(metric);
  d.baseline = baseline;
  d.candidate = candidate;
  d.delta = candidate - baseline;
  d.test = "none";
  d.p = kNaN;
  return d;
}

std::vector<MetricDelta> diff_scenario(const ScenarioAggregate& b,
                                       const ScenarioAggregate& c,
                                       double alpha) {
  std::vector<MetricDelta> metrics;
  const bool trials_b = has_trials(b);
  const bool trials_c = has_trials(c);
  // Shared by the Welch and KS rows; built once per side.
  std::vector<double> durations_b, durations_c;
  if (trials_b && trials_c) {
    durations_b = success_durations(b);
    durations_c = success_durations(c);
  }

  {  // success_rate: aggregates are exactly the test's sufficient statistic
    MetricDelta d;
    d.metric = "success_rate";
    d.baseline = b.success_rate;
    d.candidate = c.success_rate;
    d.delta = c.success_rate - b.success_rate;
    d.test = "two-proportion-z";
    metrics.push_back(annotate(std::move(d),
                               two_proportion_z_test(b.successes, b.trials,
                                                     c.successes, c.trials),
                               /*better_sign=*/+1, alpha));
  }

  {  // duration_mean_s: Welch over samples, or normal approx from quantiles
    MetricDelta d;
    d.metric = "duration_mean_s";
    d.baseline = b.duration_mean_s;
    d.candidate = c.duration_mean_s;
    d.delta = c.duration_mean_s - b.duration_mean_s;
    TestResult t;
    if (trials_b && trials_c) {
      d.test = "welch-t";
      t = welch_t_test(durations_b, durations_c);
    } else {
      d.test = "normal-approx";
      const double sb = (b.duration_p90_s - b.duration_p50_s) / kZ90;
      const double sc = (c.duration_p90_s - c.duration_p50_s) / kZ90;
      if (b.successes >= 2 && c.successes >= 2 && (sb > 0.0 || sc > 0.0)) {
        t.valid = true;
        const double se2 =
            sb * sb / static_cast<double>(b.successes) +
            sc * sc / static_cast<double>(c.successes);
        t.statistic = (c.duration_mean_s - b.duration_mean_s) /
                      std::sqrt(se2);
        t.p = normal_two_sided_p(t.statistic);
      }
      // A zero quantile spread on both sides is an estimation artifact of
      // tiny samples, not evidence of zero variance: report untested
      // rather than fabricate p = 0.
    }
    metrics.push_back(annotate(std::move(d), t, /*better_sign=*/-1, alpha));
  }

  metrics.push_back(
      untested("duration_p50_s", b.duration_p50_s, c.duration_p50_s));
  metrics.push_back(
      untested("duration_p90_s", b.duration_p90_s, c.duration_p90_s));

  {  // duration_dist: KS over success durations, shape drift detector
    MetricDelta d;
    d.metric = "duration_dist";
    d.baseline = kNaN;
    d.candidate = kNaN;
    d.test = "ks";
    TestResult t;
    if (trials_b && trials_c) {
      t = ks_test(durations_b, durations_c);
    }
    d.delta = t.valid ? t.statistic : kNaN;
    metrics.push_back(annotate(std::move(d), t, /*better_sign=*/0, alpha));
  }

  {  // shift_mean_s: aggregates carry no variance, so trial data or nothing
    MetricDelta d;
    d.metric = "shift_mean_s";
    d.baseline = b.shift_mean_s;
    d.candidate = c.shift_mean_s;
    d.delta = c.shift_mean_s - b.shift_mean_s;
    d.test = "welch-t";
    TestResult t;
    if (trials_b && trials_c) {
      t = welch_t_test(success_shifts(b), success_shifts(c));
    }
    metrics.push_back(annotate(std::move(d), t, /*better_sign=*/0, alpha));
  }

  {  // metric_mean: scenario-defined scalar over all trials
    MetricDelta d;
    d.metric = "metric_mean";
    d.baseline = b.metric_mean;
    d.candidate = c.metric_mean;
    d.delta = c.metric_mean - b.metric_mean;
    d.test = "welch-t";
    TestResult t;
    if (trials_b && trials_c) {
      t = welch_t_test(all_metrics(b), all_metrics(c));
    }
    metrics.push_back(annotate(std::move(d), t, /*better_sign=*/0, alpha));
  }

  return metrics;
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kShifted: return "shifted";
  }
  return "unchanged";
}

DiffResult diff_campaigns(const CampaignReport& baseline,
                          const CampaignReport& candidate,
                          const DiffOptions& opts) {
  DiffResult out;
  out.alpha = opts.alpha;
  out.baseline_seed = baseline.seed;
  out.candidate_seed = candidate.seed;
  out.baseline_trials = baseline.trials_per_scenario;
  out.candidate_trials = candidate.trials_per_scenario;

  auto find = [](const CampaignReport& r, const std::string& name,
                 const std::string& attack) -> const ScenarioAggregate* {
    for (const ScenarioAggregate& s : r.scenarios) {
      // Same name with a different attack recipe is a different
      // experiment: treat it as unmatched rather than comparing apples
      // to oranges.
      if (s.name == name && s.attack == attack) return &s;
    }
    return nullptr;
  };

  for (const ScenarioAggregate& b : baseline.scenarios) {
    ScenarioDiff sd;
    sd.name = b.name;
    sd.attack = b.attack;
    sd.in_baseline = true;
    const ScenarioAggregate* c = find(candidate, b.name, b.attack);
    if (c != nullptr) {
      sd.in_candidate = true;
      sd.metrics = diff_scenario(b, *c, opts.alpha);
      for (const MetricDelta& m : sd.metrics) {
        if (m.verdict != Verdict::kUnchanged) out.significant++;
      }
    }
    out.scenarios.push_back(std::move(sd));
  }
  for (const ScenarioAggregate& c : candidate.scenarios) {
    if (find(baseline, c.name, c.attack) != nullptr) continue;
    ScenarioDiff sd;
    sd.name = c.name;
    sd.attack = c.attack;
    sd.in_candidate = true;
    out.scenarios.push_back(std::move(sd));
  }
  return out;
}

u32 DiffResult::regressions(double p_threshold) const {
  u32 count = 0;
  for (const ScenarioDiff& sd : scenarios) {
    if (sd.in_baseline && !sd.in_candidate) {
      count++;
      continue;
    }
    for (const MetricDelta& m : sd.metrics) {
      if (m.p < p_threshold) count++;  // NaN (untested) never compares true
    }
  }
  return count;
}

std::string DiffResult::to_json() const {
  std::string out;
  out += "{\"alpha\":" + obs::json_number(alpha);
  out += ",\"baseline\":{\"seed\":" + std::to_string(baseline_seed);
  out += ",\"trials_per_scenario\":" + std::to_string(baseline_trials) + "}";
  out += ",\"candidate\":{\"seed\":" + std::to_string(candidate_seed);
  out += ",\"trials_per_scenario\":" + std::to_string(candidate_trials) + "}";
  out += ",\"significant\":" + std::to_string(significant);
  out += ",\"scenarios\":[";
  bool first_scenario = true;
  for (const ScenarioDiff& sd : scenarios) {
    if (!first_scenario) out += ",";
    first_scenario = false;
    out += "{\"name\":\"";
    obs::append_escaped(out, sd.name);
    out += "\",\"attack\":\"";
    obs::append_escaped(out, sd.attack);
    out += "\",\"in_baseline\":" + std::string(sd.in_baseline ? "true"
                                                              : "false");
    out += ",\"in_candidate\":" + std::string(sd.in_candidate ? "true"
                                                              : "false");
    out += ",\"metrics\":[";
    bool first_metric = true;
    for (const MetricDelta& m : sd.metrics) {
      if (!first_metric) out += ",";
      first_metric = false;
      out += "{\"metric\":\"";
      obs::append_escaped(out, m.metric);
      out += "\",\"baseline\":" + obs::json_number(m.baseline);
      out += ",\"candidate\":" + obs::json_number(m.candidate);
      out += ",\"delta\":" + obs::json_number(m.delta);
      out += ",\"test\":\"";
      obs::append_escaped(out, m.test);
      out += "\",\"statistic\":" + obs::json_number(m.statistic);
      out += ",\"df\":" + obs::json_number(m.df);
      out += ",\"p\":" + obs::json_number(m.p);
      out += ",\"verdict\":\"";
      out += to_string(m.verdict);
      out += "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string DiffResult::to_table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "  baseline:  seed=%llu trials/scenario=%u\n"
                "  candidate: seed=%llu trials/scenario=%u\n"
                "  alpha=%s significant=%u\n\n",
                static_cast<unsigned long long>(baseline_seed),
                baseline_trials,
                static_cast<unsigned long long>(candidate_seed),
                candidate_trials, obs::json_number(alpha).c_str(), significant);
  out += line;
  std::snprintf(line, sizeof line,
                "  %-24s %-15s %10s %10s %10s %9s  %s\n", "scenario",
                "metric", "baseline", "candidate", "delta", "p", "verdict");
  out += line;
  out += "  ";
  out.append(96, '-');
  out += "\n";
  auto num = [](double v) -> std::string {
    return std::isnan(v) ? "-" : obs::json_number(v);
  };
  for (const ScenarioDiff& sd : scenarios) {
    if (!sd.in_baseline || !sd.in_candidate) {
      std::snprintf(line, sizeof line, "  %-24s %-15s %10s %10s %10s %9s  %s\n",
                    sd.name.c_str(), "-", sd.in_baseline ? "present" : "-",
                    sd.in_candidate ? "present" : "-", "-", "-",
                    sd.in_baseline ? "MISSING" : "NEW");
      out += line;
      continue;
    }
    bool first = true;
    for (const MetricDelta& m : sd.metrics) {
      const char* verdict = m.verdict == Verdict::kUnchanged ? "ok"
                            : m.verdict == Verdict::kImproved ? "IMPROVED"
                            : m.verdict == Verdict::kRegressed ? "REGRESSED"
                                                               : "SHIFTED";
      std::snprintf(line, sizeof line,
                    "  %-24s %-15s %10s %10s %10s %9s  %s\n",
                    first ? sd.name.c_str() : "", m.metric.c_str(),
                    num(m.baseline).c_str(), num(m.candidate).c_str(),
                    num(m.delta).c_str(), num(m.p).c_str(), verdict);
      out += line;
      first = false;
    }
  }
  return out;
}

}  // namespace dnstime::campaign::diff
