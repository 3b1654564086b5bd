// One trial = one fully isolated deterministic World, one attack, one
// result. Trials own every object they create (poisoners included), so a
// worker thread can run any number of them with no shared state and no
// process-global keepalives.
#pragma once

#include <string>

#include "campaign/scenario_spec.h"

namespace dnstime::obs {
class FlightRecorder;
class TraceRecorder;
}  // namespace dnstime::obs

namespace dnstime::campaign {

/// Executes one trial of `spec` with the identity in `ctx`. Dispatches on
/// spec.attack (or spec.trial_fn for AttackKind::kCustom). Deterministic:
/// equal (spec, ctx.seed) pairs produce equal results on any thread.
/// Throws only on misconfiguration (e.g. kCustom without a trial_fn);
/// attack failure is reported via TrialResult::success.
[[nodiscard]] TrialResult run_trial(const ScenarioSpec& spec,
                                    const TrialContext& ctx);

/// Trial `trial` of `spec` in the campaign seeded `campaign_seed`, run the
/// way every campaign mode and the replay tool run it: the trial seed comes
/// from CampaignRunner::trial_seed, `flight` (and `trace`, when given) get
/// the trial's metadata and are installed on this thread for the trial,
/// and an exception becomes TrialResult::error plus an error event in
/// `flight`. Both recorders observe sim time only, so the result does not
/// depend on whether anything is recorded.
[[nodiscard]] TrialResult execute_trial(const ScenarioSpec& spec,
                                        u64 campaign_seed, u32 trial,
                                        obs::FlightRecorder& flight,
                                        obs::TraceRecorder* trace = nullptr);

/// The attack-narrative JSON of a trial execute_trial ran under `flight`:
/// the exact bytes of the campaign's `--dump` file (no trailing newline).
[[nodiscard]] std::string narrative_json(const obs::FlightRecorder& flight,
                                         const TrialResult& result);

}  // namespace dnstime::campaign
