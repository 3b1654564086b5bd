// The observability determinism contract at campaign level:
//  * a traced campaign writes byte-identical trace JSON at any thread
//    count, and tracing never changes the report;
//  * the metrics section is strictly additive — reports without it are
//    byte-identical to what the repo always produced, and reports with it
//    still parse in the diff harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/diff/report_reader.h"
#include "campaign/runner.h"
#include "campaign/trial.h"
#include "obs/trace.h"

namespace dnstime::campaign {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A World-free scenario whose trials emit trace events: the runner's
/// trace plumbing is exercised without simulation cost, and event content
/// depends only on ctx.seed so traces must agree across thread counts.
ScenarioSpec traced_synthetic(std::string name) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.attack = AttackKind::kCustom;
  spec.trial_fn = [](const ScenarioSpec&, const TrialContext& ctx) {
    const i64 base = static_cast<i64>(ctx.seed % 1000000);
    DNSTIME_TRACE_BEGIN(base, "trial", "work");
    DNSTIME_TRACE_INSTANT(base + 500, "trial", "step", ctx.trial);
    DNSTIME_TRACE_END(base + 1000, "trial", "work");
    TrialResult r;
    r.success = true;
    r.duration_s = static_cast<double>(ctx.seed % 100);
    return r;
  };
  return spec;
}

std::vector<ScenarioSpec> scenarios_with_real_attack() {
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back(traced_synthetic("synthetic/a"));
  scenarios.push_back(boot_time_scenario());
  scenarios.push_back(traced_synthetic("synthetic/b"));
  return scenarios;
}

TEST(TracedCampaign, TraceIsByteIdenticalAcrossThreadCounts) {
  const auto scenarios = scenarios_with_real_attack();
  // Flattened index 5 = scenario 1 (the real boot-time attack), trial 1:
  // the traced trial runs a full World so the trace carries the
  // instrumented attack-phase spans, not just synthetic events.
  const std::string path1 = temp_path("obs_trace_threads1.json");
  const std::string path8 = temp_path("obs_trace_threads8.json");
  CampaignConfig c1{.seed = 42, .trials = 4, .threads = 1};
  c1.trace_path = path1;
  c1.trace_index = 5;
  CampaignConfig c8 = c1;
  c8.threads = 8;
  c8.trace_path = path8;

  CampaignReport r1 = CampaignRunner(c1).run(scenarios);
  CampaignReport r8 = CampaignRunner(c8).run(scenarios);

  const std::string trace1 = slurp(path1);
  const std::string trace8 = slurp(path8);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace8);
#if DNSTIME_OBS
  // The traced boot-time trial carries the instrumented poison span and
  // its campaign identity.
  EXPECT_NE(trace1.find("\"name\":\"poison\""), std::string::npos);
  EXPECT_NE(trace1.find("\"scenario\":\"boot-time/ntpd\""),
            std::string::npos);
  EXPECT_NE(trace1.find("\"trial\":1"), std::string::npos);
#endif
  std::remove(path1.c_str());
  std::remove(path8.c_str());

  // Tracing must not perturb results: an untraced run agrees byte-for-byte.
  CampaignConfig plain{.seed = 42, .trials = 4, .threads = 2};
  CampaignReport rp = CampaignRunner(plain).run(scenarios);
  EXPECT_EQ(r1.to_json(), rp.to_json());
  EXPECT_EQ(r8.to_json(), rp.to_json());
}

TEST(TracedCampaign, OutOfRangeTraceIndexThrows) {
  std::vector<ScenarioSpec> scenarios{traced_synthetic("synthetic/x")};
  CampaignConfig config{.seed = 1, .trials = 2, .threads = 1};
  config.trace_path = temp_path("obs_trace_unused.json");
  config.trace_index = 2;  // valid indices: 0, 1
  EXPECT_THROW((void)CampaignRunner(config).run(scenarios),
               std::invalid_argument);
}

TEST(MetricsSection, AbsentByDefaultAndAdditive) {
  std::vector<ScenarioSpec> scenarios{traced_synthetic("synthetic/m")};
  CampaignConfig config{.seed = 9, .trials = 2, .threads = 1};
  CampaignReport report = CampaignRunner(config).run(scenarios);

  const std::string plain = report.to_json();
  EXPECT_EQ(plain.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(plain, report.to_json(true, ""));

  const std::string with_metrics =
      report.to_json(true, "{\"counters\":{\"x\":1},\"histograms\":{}}");
  // Strictly additive: the metrics key lands at the tail, everything
  // before it is byte-identical to the plain serialisation.
  ASSERT_GT(with_metrics.size(), plain.size());
  EXPECT_EQ(with_metrics.substr(0, plain.size() - 1),
            plain.substr(0, plain.size() - 1));
  EXPECT_NE(with_metrics.find(",\"metrics\":{\"counters\":{\"x\":1}"),
            std::string::npos);
}

TEST(MetricsSection, DiffReaderParsesAndIgnoresMetrics) {
  std::vector<ScenarioSpec> scenarios{traced_synthetic("synthetic/d")};
  CampaignConfig config{.seed = 9, .trials = 2, .threads = 1};
  CampaignReport report = CampaignRunner(config).run(scenarios);

  const std::string metrics =
      "{\"counters\":{\"a\":1,\"b\":2},"
      "\"histograms\":{\"h\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,"
      "\"buckets\":{\"2\":1}}},"
      "\"buffer_pool\":{\"fresh_allocs\":3,\"outstanding\":0}}";
  CampaignReport parsed =
      diff::parse_report(report.to_json(true, metrics), "test");
  // The metrics block is skipped, not modelled: the parsed report matches
  // the metrics-free serialisation exactly.
  EXPECT_EQ(parsed.to_json(), report.to_json());

  // Unknown top-level keys other than "metrics" still fail hard.
  EXPECT_THROW(
      (void)diff::parse_report("{\"seed\":1,\"trials_per_scenario\":1,"
                               "\"scenarios\":[],\"mystery\":1}",
                               "test"),
      diff::ParseError);
}

}  // namespace
}  // namespace dnstime::campaign
