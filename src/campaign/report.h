// Structured campaign results: per-scenario aggregates over trial results,
// with deterministic JSON and ASCII-table writers.
//
// Reports contain only simulation-derived values — no wall-clock times, no
// thread counts — so the same campaign seed yields byte-identical output
// regardless of how many workers executed it.
#pragma once

#include <string>
#include <vector>

#include "campaign/scenario_spec.h"
#include "common/histogram.h"

namespace dnstime::campaign {

/// Aggregate over all trials of one scenario. Quantiles are computed over
/// successful trials only (an unsuccessful trial's duration is the
/// deadline, which would say nothing about the attack).
struct ScenarioAggregate {
  std::string name;
  std::string attack;
  u32 trials = 0;
  u32 successes = 0;
  u32 errors = 0;
  double success_rate = 0.0;
  double duration_mean_s = 0.0;
  double duration_p50_s = 0.0;
  double duration_p90_s = 0.0;
  double shift_mean_s = 0.0;   ///< mean final clock offset, successful trials
  double metric_mean = 0.0;    ///< mean scenario-defined metric, all trials
  u64 fragments_total = 0;
  /// Trial-index order. Empty when the campaign was journaled: the shards
  /// hold the per-trial rows and store::read_report() rebuilds them.
  std::vector<TrialResult> results;

  /// Builds the aggregate from trial-ordered results (a batch wrapper
  /// around ScenarioAggregateBuilder).
  [[nodiscard]] static ScenarioAggregate from_results(
      const ScenarioSpec& spec, std::vector<TrialResult> results);
};

/// Streaming fold producing a ScenarioAggregate: feed TrialResults in
/// trial-index order, then call finish() once. from_results() and the
/// journal merge (campaign/store/journal_reader.h) both fold through this
/// builder — sharing the exact accumulation sequence is what makes a
/// report rebuilt from shards byte-identical to the in-memory one.
class ScenarioAggregateBuilder {
 public:
  /// `keep_results` retains every TrialResult inside the aggregate (the
  /// in-memory runner path and store::read_report). Aggregate-only folds
  /// pass false and hold O(1) state per trial plus the success-duration
  /// samples that exact p50/p90 quantiles require.
  ScenarioAggregateBuilder(std::string name, std::string attack,
                           bool keep_results);

  /// Must be called in trial-index order: floating-point accumulation
  /// order is part of the byte-identity contract.
  void add(TrialResult r);

  [[nodiscard]] ScenarioAggregate finish() &&;

 private:
  ScenarioAggregate agg_;
  EmpiricalCdf durations_;  ///< successful trials only
  double duration_sum_ = 0.0;
  double shift_sum_ = 0.0;
  double metric_sum_ = 0.0;
  bool keep_results_;
};

struct CampaignReport {
  u64 seed = 0;
  u32 trials_per_scenario = 0;
  std::vector<ScenarioAggregate> scenarios;  ///< scenario registration order

  /// Machine-readable form; stable key order and number formatting.
  /// `metrics_json`, when non-empty, must be a complete JSON value; it is
  /// appended verbatim as a trailing "metrics" key. Metrics are process
  /// telemetry (wall times, pool hit rates), NOT simulation results — they
  /// live outside the byte-identity contract, which is why the default
  /// (empty) leaves the output byte-for-byte what it always was.
  [[nodiscard]] std::string to_json(bool include_trials = true,
                                    const std::string& metrics_json = {})
      const;
  /// Human-readable summary table.
  [[nodiscard]] std::string to_table() const;
};

}  // namespace dnstime::campaign
