#include "campaign/report.h"

#include <cstdio>
#include <utility>

#include "obs/json_util.h"

namespace dnstime::campaign {

ScenarioAggregate ScenarioAggregate::from_results(
    const ScenarioSpec& spec, std::vector<TrialResult> results) {
  ScenarioAggregateBuilder builder(spec.name, to_string(spec.attack),
                                   /*keep_results=*/true);
  for (TrialResult& r : results) builder.add(std::move(r));
  return std::move(builder).finish();
}

ScenarioAggregateBuilder::ScenarioAggregateBuilder(std::string name,
                                                   std::string attack,
                                                   bool keep_results)
    : keep_results_(keep_results) {
  agg_.name = std::move(name);
  agg_.attack = std::move(attack);
}

void ScenarioAggregateBuilder::add(TrialResult r) {
  agg_.trials++;
  if (!r.error.empty()) agg_.errors++;
  if (r.success) {
    agg_.successes++;
    durations_.add(r.duration_s);
    duration_sum_ += r.duration_s;
    shift_sum_ += r.clock_shift_s;
  }
  metric_sum_ += r.metric;
  agg_.fragments_total += r.fragments_planted;
  if (keep_results_) agg_.results.push_back(std::move(r));
}

ScenarioAggregate ScenarioAggregateBuilder::finish() && {
  if (agg_.trials > 0) {
    agg_.success_rate =
        static_cast<double>(agg_.successes) / static_cast<double>(agg_.trials);
  }
  if (durations_.size() > 0) {
    agg_.duration_p50_s = durations_.quantile(0.5);
    agg_.duration_p90_s = durations_.quantile(0.9);
  }
  // Left-to-right running sums over trial-index order: bit-identical to the
  // mean() over trial-ordered vectors the batch path historically computed.
  agg_.duration_mean_s =
      agg_.successes > 0
          ? duration_sum_ / static_cast<double>(agg_.successes)
          : 0.0;
  agg_.shift_mean_s =
      agg_.successes > 0 ? shift_sum_ / static_cast<double>(agg_.successes)
                         : 0.0;
  agg_.metric_mean =
      agg_.trials > 0 ? metric_sum_ / static_cast<double>(agg_.trials) : 0.0;
  return std::move(agg_);
}

std::string CampaignReport::to_json(bool include_trials,
                                    const std::string& metrics_json) const {
  std::string out;
  out += "{\"seed\":" + std::to_string(seed);
  out += ",\"trials_per_scenario\":" + std::to_string(trials_per_scenario);
  out += ",\"scenarios\":[";
  bool first_scenario = true;
  for (const ScenarioAggregate& s : scenarios) {
    if (!first_scenario) out += ",";
    first_scenario = false;
    out += "{\"name\":\"";
    obs::append_escaped(out, s.name);
    out += "\",\"attack\":\"";
    obs::append_escaped(out, s.attack);
    out += "\",\"trials\":" + std::to_string(s.trials);
    out += ",\"successes\":" + std::to_string(s.successes);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"success_rate\":" + obs::json_number(s.success_rate);
    out += ",\"duration_mean_s\":" + obs::json_number(s.duration_mean_s);
    out += ",\"duration_p50_s\":" + obs::json_number(s.duration_p50_s);
    out += ",\"duration_p90_s\":" + obs::json_number(s.duration_p90_s);
    out += ",\"shift_mean_s\":" + obs::json_number(s.shift_mean_s);
    out += ",\"metric_mean\":" + obs::json_number(s.metric_mean);
    out += ",\"fragments_total\":" + std::to_string(s.fragments_total);
    if (include_trials) {
      out += ",\"results\":[";
      bool first_trial = true;
      for (const TrialResult& r : s.results) {
        if (!first_trial) out += ",";
        first_trial = false;
        out += "{\"trial\":" + std::to_string(r.trial);
        out += ",\"seed\":" + std::to_string(r.seed);
        out += ",\"success\":" + std::string(r.success ? "true" : "false");
        out += ",\"duration_s\":" + obs::json_number(r.duration_s);
        out += ",\"clock_shift_s\":" + obs::json_number(r.clock_shift_s);
        out += ",\"metric\":" + obs::json_number(r.metric);
        out += ",\"fragments_planted\":" + std::to_string(r.fragments_planted);
        out += ",\"replant_rounds\":" + std::to_string(r.replant_rounds);
        if (!r.error.empty()) {
          out += ",\"error\":\"";
          obs::append_escaped(out, r.error);
          out += "\"";
        }
        out += "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]";
  if (!metrics_json.empty()) out += ",\"metrics\":" + metrics_json;
  out += "}";
  return out;
}

std::string CampaignReport::to_table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "  %-24s %-9s %7s %9s %10s %10s %10s\n", "scenario", "attack",
                "trials", "success", "mean", "p50", "p90");
  out += line;
  out += "  ";
  out.append(84, '-');
  out += "\n";
  for (const ScenarioAggregate& s : scenarios) {
    std::snprintf(line, sizeof line,
                  "  %-24s %-9s %7u %8.0f%% %7.1f min %7.1f min %7.1f min\n",
                  s.name.c_str(), s.attack.c_str(), s.trials,
                  s.success_rate * 100.0, s.duration_mean_s / 60.0,
                  s.duration_p50_s / 60.0, s.duration_p90_s / 60.0);
    out += line;
  }
  return out;
}

}  // namespace dnstime::campaign
