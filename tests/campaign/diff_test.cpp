// The cross-campaign diff subsystem's three contracts:
//   1. the ReportReader is the exact inverse of CampaignReport::to_json()
//      — randomized round-trip over adversarial reports (non-finite
//      metrics, unicode and control-character names, empty scenarios),
//      1000 iterations;
//   2. the reader is strict: trailing garbage, duplicate keys, duplicate
//      scenario names, unknown/missing keys, malformed numbers and
//      inconsistent aggregates are rejected with line/column diagnostics
//      (no JSON-level repeat of the old atoi silent-acceptance bug);
//   3. diff_campaigns annotates real movements as significant with the
//      right test (welch-t with trial data, normal-approx / z-test from
//      aggregates) and the regression gate counts exactly the significant
//      deltas plus vanished scenarios.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "campaign/diff/diff.h"
#include "campaign/diff/report_reader.h"
#include "campaign/report.h"
#include "common/rng.h"
#include "obs/json_util.h"

namespace dnstime::campaign {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- round-trip property ----------------------------------------------------

/// JSON collapses every non-finite double to null, which parses back as
/// NaN: equality treats the whole non-finite class as one value and
/// demands bit-exactness for the rest (covers -0.0).
bool same_double(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return !std::isfinite(a) && !std::isfinite(b);
  }
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

/// %.6g loses precision, so the generator emits only values that survive
/// one format/parse cycle — then parse(emit(r)) == r holds exactly.
double stabilize(double v) {
  if (!std::isfinite(v)) return v;
  return std::strtod(obs::json_number(v).c_str(), nullptr);
}

double random_metric(Rng& rng) {
  switch (rng.uniform(0, 6)) {
    case 0: return kNaN;
    case 1: return kInf;
    case 2: return -kInf;
    case 3: return -0.0;
    case 4: return stabilize((rng.uniform01() - 0.5) * 1e6);
    case 5: return stabilize(5e-324);  // denormals survive the reader
    default: return stabilize(rng.uniform01());
  }
}

std::string random_name(Rng& rng, u64 ordinal) {
  static const char* kBases[] = {
      "table2/ntpd-p1",     "sweep/\xce\xbc-mtu",      // μ
      "snow\xe2\x98\x83man",                           // ☃
      "esc\"ape\\name",     "ctrl\x01\x1f\ntail",      // forces \u escapes
      "plain",
  };
  return std::string(kBases[rng.uniform(0, 5)]) + "#" +
         std::to_string(ordinal);
}

TrialResult random_trial(Rng& rng, u32 trial) {
  TrialResult t;
  t.trial = trial;
  t.seed = rng.uniform(0, ~u64{0});
  t.success = rng.chance(0.6);
  t.duration_s = random_metric(rng);
  t.clock_shift_s = random_metric(rng);
  t.metric = random_metric(rng);
  t.fragments_planted = rng.uniform(0, 1u << 20);
  t.replant_rounds = rng.uniform(0, 64);
  switch (rng.uniform(0, 3)) {
    case 0: t.error = ""; break;
    case 1: t.error = "multi\nline \"quoted\" \\slash"; break;
    case 2: t.error = "unicode \xc3\xa9\xe2\x98\x83 and ctrl \x02"; break;
    default: t.error = "boom"; break;
  }
  return t;
}

CampaignReport random_report(Rng& rng) {
  CampaignReport r;
  r.seed = rng.uniform(0, ~u64{0});
  r.trials_per_scenario = static_cast<u32>(rng.uniform(0, 6));
  const u64 scenario_count = rng.uniform(0, 4);  // 0: empty scenarios array
  for (u64 i = 0; i < scenario_count; ++i) {
    ScenarioAggregate s;
    s.name = random_name(rng, i);
    s.attack = rng.chance(0.5) ? "run-time" : "custom";
    s.trials = static_cast<u32>(rng.uniform(0, 8));
    s.successes = static_cast<u32>(rng.uniform(0, s.trials));
    s.errors = static_cast<u32>(rng.uniform(0, s.trials));
    s.success_rate = random_metric(rng);
    s.duration_mean_s = random_metric(rng);
    s.duration_p50_s = random_metric(rng);
    s.duration_p90_s = random_metric(rng);
    s.shift_mean_s = random_metric(rng);
    s.metric_mean = random_metric(rng);
    s.fragments_total = rng.uniform(0, ~u64{0});
    if (rng.chance(0.7)) {
      const u64 results = rng.uniform(0, 5);
      for (u64 t = 0; t < results; ++t) {
        s.results.push_back(random_trial(rng, static_cast<u32>(t)));
      }
    }
    r.scenarios.push_back(std::move(s));
  }
  return r;
}

void expect_same_trial(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.trial, b.trial);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  EXPECT_TRUE(same_double(a.duration_s, b.duration_s));
  EXPECT_TRUE(same_double(a.clock_shift_s, b.clock_shift_s));
  EXPECT_TRUE(same_double(a.metric, b.metric));
  EXPECT_EQ(a.fragments_planted, b.fragments_planted);
  EXPECT_EQ(a.replant_rounds, b.replant_rounds);
  EXPECT_EQ(a.error, b.error);
}

void expect_same_report(const CampaignReport& a, const CampaignReport& b,
                        bool with_trials) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.trials_per_scenario, b.trials_per_scenario);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    const ScenarioAggregate& x = a.scenarios[i];
    const ScenarioAggregate& y = b.scenarios[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.attack, y.attack);
    EXPECT_EQ(x.trials, y.trials);
    EXPECT_EQ(x.successes, y.successes);
    EXPECT_EQ(x.errors, y.errors);
    EXPECT_TRUE(same_double(x.success_rate, y.success_rate));
    EXPECT_TRUE(same_double(x.duration_mean_s, y.duration_mean_s));
    EXPECT_TRUE(same_double(x.duration_p50_s, y.duration_p50_s));
    EXPECT_TRUE(same_double(x.duration_p90_s, y.duration_p90_s));
    EXPECT_TRUE(same_double(x.shift_mean_s, y.shift_mean_s));
    EXPECT_TRUE(same_double(x.metric_mean, y.metric_mean));
    EXPECT_EQ(x.fragments_total, y.fragments_total);
    if (with_trials) {
      ASSERT_EQ(x.results.size(), y.results.size());
      for (std::size_t t = 0; t < x.results.size(); ++t) {
        expect_same_trial(x.results[t], y.results[t]);
      }
    } else {
      EXPECT_TRUE(y.results.empty());
    }
  }
}

TEST(ReportRoundTrip, RandomizedPropertyThousandIterations) {
  for (u64 iteration = 0; iteration < 1000; ++iteration) {
    Rng rng{mix_seed(0xd1ff, iteration)};
    CampaignReport report = random_report(rng);
    const bool with_trials = rng.chance(0.7);
    const std::string json = report.to_json(with_trials);

    CampaignReport parsed;
    try {
      parsed = diff::parse_report(json);
    } catch (const diff::ParseError& e) {
      FAIL() << "iteration " << iteration << ": " << e.what() << "\n"
             << json;
    }
    // Byte fixpoint: re-emission reproduces the input exactly...
    EXPECT_EQ(parsed.to_json(with_trials), json) << "iteration " << iteration;
    // ...and the structs match field-for-field (parse(emit(r)) == r).
    expect_same_report(report, parsed, with_trials);
  }
}

// --- reader strictness ------------------------------------------------------

std::string valid_json() {
  CampaignReport r;
  r.seed = 7;
  r.trials_per_scenario = 2;
  ScenarioAggregate s;
  s.name = "synthetic/a";
  s.attack = "custom";
  s.trials = 2;
  s.successes = 1;
  s.errors = 0;
  s.success_rate = 0.5;
  s.duration_mean_s = 60.0;
  s.duration_p50_s = 60.0;
  s.duration_p90_s = 60.0;
  s.shift_mean_s = -500.0;
  s.metric_mean = 0.25;
  s.fragments_total = 12;
  r.scenarios.push_back(std::move(s));
  return r.to_json();
}

TEST(ReportReader, AcceptsOwnOutputAndWhitespace) {
  EXPECT_NO_THROW((void)diff::parse_report(valid_json()));
  // Pretty-printed (python json.dump style) must parse identically: the
  // CI doctoring scripts rewrite baselines through stock JSON libraries.
  std::string spaced;
  for (char c : valid_json()) {
    spaced += c;
    if (c == ',' || c == ':' || c == '{' || c == '[') spaced += "\n  ";
  }
  CampaignReport a = diff::parse_report(valid_json());
  CampaignReport b = diff::parse_report(spaced);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ReportReader, RejectsTrailingGarbage) {
  const std::string json = valid_json();
  for (const char* tail : {" x", "{}", "]", "null", "\n\n7"}) {
    try {
      (void)diff::parse_report(json + tail, "r.json");
      FAIL() << "accepted trailing garbage: " << tail;
    } catch (const diff::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing garbage"),
                std::string::npos);
    }
  }
  // Whitespace after the object is not garbage.
  EXPECT_NO_THROW((void)diff::parse_report(json + "\n \t\n"));
}

TEST(ReportReader, RejectsDuplicateKeysWithPosition) {
  try {
    (void)diff::parse_report(
        "{\"seed\":1,\n \"seed\":2,\"trials_per_scenario\":0,"
        "\"scenarios\":[]}",
        "dup.json");
    FAIL() << "accepted a duplicate key";
  } catch (const diff::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key \"seed\""),
              std::string::npos);
    // The diagnostic points at the second "seed", line 2 column 2.
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 2u);
    EXPECT_EQ(e.offset(), 12u);
    EXPECT_NE(std::string(e.what()).find("dup.json:2:2"), std::string::npos);
  }
}

TEST(ReportReader, RejectsDuplicateScenarioNames) {
  std::string json = valid_json();
  // Duplicate the single scenario verbatim.
  const std::size_t open = json.find("[{");
  const std::size_t close = json.rfind("}]");
  const std::string scenario = json.substr(open + 1, close - open);
  json.insert(close + 1, "," + scenario);
  try {
    (void)diff::parse_report(json);
    FAIL() << "accepted duplicate scenario names";
  } catch (const diff::ParseError& e) {
    EXPECT_NE(
        std::string(e.what()).find("duplicate scenario \"synthetic/a\""),
        std::string::npos);
  }
}

TEST(ReportReader, RejectsUnknownAndMissingKeys) {
  EXPECT_THROW(
      (void)diff::parse_report("{\"seed\":1,\"bogus\":2,"
                               "\"trials_per_scenario\":0,\"scenarios\":[]}"),
      diff::ParseError);
  EXPECT_THROW((void)diff::parse_report("{\"seed\":1,\"scenarios\":[]}"),
               diff::ParseError);
  try {
    (void)diff::parse_report("{\"seed\":1,\"scenarios\":[]}");
  } catch (const diff::ParseError& e) {
    EXPECT_NE(
        std::string(e.what()).find("missing key \"trials_per_scenario\""),
        std::string::npos);
  }
}

TEST(ReportReader, RejectsMalformedNumbers) {
  // The integer fields take plain unsigned decimal tokens only — no
  // signs, fractions, exponents, leading zeros or overflow.
  for (const char* bad : {"-1", "1.5", "01", "1e3", "99999999999999999999",
                          "\"7\"", "null"}) {
    std::string json = std::string("{\"seed\":") + bad +
                       ",\"trials_per_scenario\":0,\"scenarios\":[]}";
    EXPECT_THROW((void)diff::parse_report(json), diff::ParseError)
        << "accepted seed=" << bad;
  }
  // Doubles accept the full JSON number grammar plus null (including
  // denormals, which the writer legitimately emits)...
  std::string json = valid_json();
  const std::string from = "\"success_rate\":0.5";
  for (const char* ok : {"\"success_rate\":5e-1", "\"success_rate\":null",
                         "\"success_rate\":-0", "\"success_rate\":1e-320"}) {
    std::string patched = json;
    patched.replace(patched.find(from), from.size(), ok);
    EXPECT_NO_THROW((void)diff::parse_report(patched)) << ok;
  }
  // ...but not bare garbage, and not literals that overflow to infinity —
  // the writer's null convention means a finite-typed field must never
  // smuggle in a non-finite value.
  for (const char* bad : {"\"success_rate\":nan", "\"success_rate\":.5",
                          "\"success_rate\":1.", "\"success_rate\":+1",
                          "\"success_rate\":1e400",
                          "\"success_rate\":-1e400"}) {
    std::string patched = json;
    patched.replace(patched.find(from), from.size(), bad);
    EXPECT_THROW((void)diff::parse_report(patched), diff::ParseError) << bad;
  }
}

TEST(ReportReader, RejectsInconsistentAggregates) {
  std::string json = valid_json();
  const std::string from = "\"successes\":1";
  json.replace(json.find(from), from.size(), "\"successes\":3");
  try {
    (void)diff::parse_report(json);
    FAIL() << "accepted successes > trials";
  } catch (const diff::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("successes exceed trials"),
              std::string::npos);
  }
}

TEST(ReportReader, RejectsBrokenStrings) {
  EXPECT_THROW((void)diff::parse_report("{\"seed"), diff::ParseError);
  // Raw control characters must be escaped per RFC 8259.
  EXPECT_THROW(
      (void)diff::parse_report("{\"se\x01"
                               "ed\":1,\"trials_per_scenario\":0,"
                               "\"scenarios\":[]}"),
      diff::ParseError);
  // Lone surrogates are not code points.
  EXPECT_THROW((void)diff::parse_report(
                   "{\"seed\":1,\"trials_per_scenario\":0,\"scenarios\":"
                   "[{\"name\":\"\\ud800\",\"attack\":\"x\"}]}"),
               diff::ParseError);
}

TEST(ReportReader, NullMapsToNaN) {
  std::string json = valid_json();
  const std::string from = "\"duration_mean_s\":60";
  json.replace(json.find(from), from.size(), "\"duration_mean_s\":null");
  CampaignReport r = diff::parse_report(json);
  EXPECT_TRUE(std::isnan(r.scenarios[0].duration_mean_s));
}

// --- diff semantics ---------------------------------------------------------

/// Builds a scenario aggregate through the production fold, from synthetic
/// success durations (failures get the deadline duration, unused by the
/// duration aggregates).
ScenarioAggregate make_scenario(const std::string& name, u32 trials,
                                const std::vector<double>& success_durations,
                                bool keep_results) {
  ScenarioAggregateBuilder builder(name, "custom", keep_results);
  for (u32 t = 0; t < trials; ++t) {
    TrialResult r;
    r.trial = t;
    r.seed = 1000 + t;
    if (t < success_durations.size()) {
      r.success = true;
      r.duration_s = success_durations[t];
      r.clock_shift_s = -500.0;
    } else {
      r.success = false;
      r.duration_s = 21600.0;
    }
    r.metric = static_cast<double>(t % 3);
    builder.add(std::move(r));
  }
  return std::move(builder).finish();
}

CampaignReport one_scenario_report(u64 seed, ScenarioAggregate s) {
  CampaignReport r;
  r.seed = seed;
  r.trials_per_scenario = s.trials;
  r.scenarios.push_back(std::move(s));
  return r;
}

const diff::MetricDelta& metric(const diff::DiffResult& d,
                                const std::string& name) {
  for (const diff::ScenarioDiff& sd : d.scenarios) {
    for (const diff::MetricDelta& m : sd.metrics) {
      if (m.metric == name) return m;
    }
  }
  throw std::runtime_error("metric not found: " + name);
}

TEST(CampaignDiff, IdenticalReportsAreAllUnchanged) {
  CampaignReport r = one_scenario_report(
      1, make_scenario("s/a", 8, {60, 61, 62, 63, 64, 65}, true));
  diff::DiffResult d = diff::diff_campaigns(r, r, {});
  EXPECT_EQ(d.significant, 0u);
  EXPECT_EQ(d.regressions(0.05), 0u);
  for (const diff::ScenarioDiff& sd : d.scenarios) {
    for (const diff::MetricDelta& m : sd.metrics) {
      EXPECT_EQ(m.verdict, diff::Verdict::kUnchanged) << m.metric;
    }
  }
  EXPECT_EQ(metric(d, "success_rate").test, "two-proportion-z");
  EXPECT_EQ(metric(d, "duration_mean_s").test, "welch-t");
  EXPECT_EQ(metric(d, "duration_dist").test, "ks");
}

TEST(CampaignDiff, SuccessRateDropIsARegression) {
  // 98/100 vs 2/8 successes: the two-proportion z-test is unambiguous.
  std::vector<double> many(98, 60.0);
  CampaignReport baseline =
      one_scenario_report(1, make_scenario("s/a", 100, many, false));
  CampaignReport candidate =
      one_scenario_report(2, make_scenario("s/a", 8, {60.0, 61.0}, false));
  diff::DiffResult d = diff::diff_campaigns(baseline, candidate, {});
  const diff::MetricDelta& m = metric(d, "success_rate");
  EXPECT_EQ(m.verdict, diff::Verdict::kRegressed);
  EXPECT_LT(m.p, 1e-6);
  EXPECT_GE(d.regressions(0.05), 1u);
  // The same movement upward is an improvement, and still gated.
  diff::DiffResult up = diff::diff_campaigns(candidate, baseline, {});
  EXPECT_EQ(metric(up, "success_rate").verdict, diff::Verdict::kImproved);
  EXPECT_GE(up.regressions(0.05), 1u);
}

TEST(CampaignDiff, DurationShiftUsesWelchWithTrialData) {
  CampaignReport baseline = one_scenario_report(
      1, make_scenario("s/a", 8, {60, 61, 62, 63, 60, 61, 62, 63}, true));
  CampaignReport candidate = one_scenario_report(
      2, make_scenario("s/a", 8, {90, 91, 92, 93, 90, 91, 92, 93}, true));
  diff::DiffResult d = diff::diff_campaigns(baseline, candidate, {});
  const diff::MetricDelta& m = metric(d, "duration_mean_s");
  EXPECT_EQ(m.test, "welch-t");
  EXPECT_EQ(m.verdict, diff::Verdict::kRegressed);  // slower attack
  EXPECT_LT(m.p, 1e-6);
  EXPECT_DOUBLE_EQ(m.delta, 30.0);
  // KS sees the disjoint distributions too.
  EXPECT_EQ(metric(d, "duration_dist").verdict, diff::Verdict::kShifted);
  // Faster is an improvement.
  diff::DiffResult faster = diff::diff_campaigns(candidate, baseline, {});
  EXPECT_EQ(metric(faster, "duration_mean_s").verdict,
            diff::Verdict::kImproved);
}

TEST(CampaignDiff, AggregatesOnlyFallsBackToNormalApprox) {
  // keep_results = false: what a journaled-run report looks like.
  CampaignReport baseline = one_scenario_report(
      1, make_scenario("s/a", 10, {60, 62, 64, 66, 68, 70, 72, 74}, false));
  CampaignReport candidate = one_scenario_report(
      2, make_scenario("s/a", 10, {90, 92, 94, 96, 98, 100, 102, 104},
                       false));
  diff::DiffResult d = diff::diff_campaigns(baseline, candidate, {});
  const diff::MetricDelta& m = metric(d, "duration_mean_s");
  EXPECT_EQ(m.test, "normal-approx");
  EXPECT_EQ(m.verdict, diff::Verdict::kRegressed);
  // No trial data: the trial-only tests stay untested, never fabricated.
  EXPECT_EQ(metric(d, "duration_dist").test, "none");
  EXPECT_TRUE(std::isnan(metric(d, "duration_dist").p));
  EXPECT_EQ(metric(d, "shift_mean_s").test, "none");
  // A zero p50..p90 spread on both sides cannot support the approximation.
  CampaignReport flat_b = one_scenario_report(
      1, make_scenario("s/b", 4, {60, 60, 60, 60}, false));
  CampaignReport flat_c = one_scenario_report(
      2, make_scenario("s/b", 4, {75, 75, 75, 75}, false));
  diff::DiffResult flat = diff::diff_campaigns(flat_b, flat_c, {});
  EXPECT_EQ(metric(flat, "duration_mean_s").test, "none");
  EXPECT_TRUE(std::isnan(metric(flat, "duration_mean_s").p));
}

TEST(CampaignDiff, MissingScenariosGateNewOnesDoNot) {
  CampaignReport baseline;
  baseline.seed = 1;
  baseline.trials_per_scenario = 4;
  baseline.scenarios.push_back(make_scenario("s/kept", 4, {60, 61}, true));
  baseline.scenarios.push_back(make_scenario("s/gone", 4, {60, 61}, true));
  CampaignReport candidate;
  candidate.seed = 2;
  candidate.trials_per_scenario = 4;
  candidate.scenarios.push_back(make_scenario("s/kept", 4, {60, 61}, true));
  candidate.scenarios.push_back(make_scenario("s/new", 4, {60, 61}, true));

  diff::DiffResult d = diff::diff_campaigns(baseline, candidate, {});
  ASSERT_EQ(d.scenarios.size(), 3u);
  EXPECT_EQ(d.regressions(0.05), 1u);  // s/gone only; s/new is free
  const diff::ScenarioDiff& gone = d.scenarios[1];
  EXPECT_EQ(gone.name, "s/gone");
  EXPECT_TRUE(gone.in_baseline);
  EXPECT_FALSE(gone.in_candidate);
  const diff::ScenarioDiff& added = d.scenarios[2];
  EXPECT_EQ(added.name, "s/new");
  EXPECT_FALSE(added.in_baseline);
  EXPECT_TRUE(added.in_candidate);
}

TEST(CampaignDiff, AttackKindMismatchIsNotAMatch) {
  ScenarioAggregate a = make_scenario("s/a", 4, {60, 61}, true);
  ScenarioAggregate b = make_scenario("s/a", 4, {60, 61}, true);
  b.attack = "run-time";  // same name, different experiment
  diff::DiffResult d = diff::diff_campaigns(one_scenario_report(1, a),
                                            one_scenario_report(2, b), {});
  ASSERT_EQ(d.scenarios.size(), 2u);
  EXPECT_FALSE(d.scenarios[0].in_candidate);
  EXPECT_FALSE(d.scenarios[1].in_baseline);
  EXPECT_EQ(d.regressions(0.05), 1u);
}

TEST(CampaignDiff, AlphaControlsAnnotationOnly) {
  // 6/8 vs 2/8 successes: p ~ 0.046 — significant at 0.05, not at 0.01.
  CampaignReport baseline = one_scenario_report(
      1, make_scenario("s/a", 8, std::vector<double>(6, 60.0), false));
  CampaignReport candidate = one_scenario_report(
      2, make_scenario("s/a", 8, std::vector<double>(2, 60.0), false));
  diff::DiffResult strict = diff::diff_campaigns(
      baseline, candidate, {.alpha = 0.01});
  EXPECT_EQ(metric(strict, "success_rate").verdict,
            diff::Verdict::kUnchanged);
  EXPECT_EQ(strict.regressions(0.01), 0u);
  diff::DiffResult loose = diff::diff_campaigns(
      baseline, candidate, {.alpha = 0.05});
  EXPECT_EQ(metric(loose, "success_rate").verdict,
            diff::Verdict::kRegressed);
  EXPECT_EQ(loose.regressions(0.05), 1u);
}

TEST(CampaignDiff, JsonOutputIsParseableShape) {
  CampaignReport r = one_scenario_report(
      1, make_scenario("s/a", 8, {60, 61, 62, 63, 64, 65}, true));
  diff::DiffResult d = diff::diff_campaigns(r, r, {});
  const std::string json = d.to_json();
  EXPECT_NE(json.find("\"alpha\":0.05"), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"success_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"unchanged\""), std::string::npos);
  // Untested metrics serialise p as null, never nan.
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace dnstime::campaign
