// Declarative scenario descriptions for the campaign engine.
//
// A ScenarioSpec names one experiment configuration: a World to build, a
// victim client implementation, an attack recipe and a stop condition.
// The registry holds the paper's canonical scenarios (the Table I client
// matrix, Table II run-time rows, the §IV-A boot-time pipeline, the §VI-C
// Chronos pool freeze and its N = 5/11/12 boundary) plus parameter sweeps
// (MTU, pool size, rate-limit fraction, pool A TTL).
//
// Specs are pure data: running N trials of a spec never mutates it, so the
// same spec can be executed concurrently from many worker threads.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/world.h"

namespace dnstime::campaign {

/// Which client implementation the victim host runs (the Table I rows).
enum class ClientKind {
  kNtpdKnownList,  ///< ntpd, attacker floods the enumerated pool (P1)
  kNtpdRefid,      ///< ntpd, upstreams learned from refid leak (P2)
  kChrony,         ///< chrony with poll backoff under failure
  kOpenntpd,       ///< openntpd; needs a restart to re-query DNS
  kNtpdate,        ///< ntpdate; one-shot, boot time only
  kAndroid,        ///< Android SNTP
  kNtpclient,      ///< ntpclient; stalls instead of re-querying DNS
  kTimesyncd,      ///< systemd-timesyncd
};

enum class AttackKind {
  kRunTime,   ///< §IV-B: rate-limit abuse against a synchronised client
  kBootTime,  ///< §IV-A: poison first, victim boots into the attacker
  kChronos,   ///< §VI-C: freeze the Chronos pool via one poisoning
  kCustom,    ///< scenario supplies its own trial function
};

[[nodiscard]] const char* to_string(ClientKind k);
[[nodiscard]] const char* to_string(AttackKind k);

/// When a trial gives up and what counts as success.
struct StopCondition {
  /// Attack deadline on the simulation clock, measured from attack start.
  sim::Duration deadline = sim::Duration::hours(6);
  /// Extra simulated time after the deadline for in-flight effects (e.g.
  /// the final clock step) to land.
  sim::Duration settle = sim::Duration::minutes(5);
  /// A victim clock offset at or below this many seconds is a success
  /// (the canonical lab shift is -500 s; -400 leaves slew margin).
  double success_shift = -400.0;
  /// Run-time recipe, openntpd victims only: restart the daemon this long
  /// after the attack starts, as an operator or stall watchdog would, so
  /// its one boot-time lookup hits the poisoned cache. A restart on any
  /// other victim is a trial error.
  std::optional<sim::Duration> restart_after;
};

/// Outcome of one independent trial. All fields are derived from the
/// deterministic simulation, so equal seeds give equal results.
struct TrialResult {
  u32 trial = 0;           ///< trial index within the scenario
  u64 seed = 0;            ///< world seed this trial ran with
  bool success = false;
  double duration_s = 0.0;     ///< attack start -> success (or deadline)
  double clock_shift_s = 0.0;  ///< victim clock offset at trial end
  double metric = 0.0;         ///< scenario-defined scalar (e.g. MC estimate)
  u64 fragments_planted = 0;
  u64 replant_rounds = 0;
  std::string error;  ///< non-empty if the trial threw
};

/// Per-trial identity handed to trial functions by the runner.
struct TrialContext {
  u64 campaign_seed = 0;
  u32 trial = 0;  ///< index within the scenario, 0-based
  u64 seed = 0;   ///< mix_seed(campaign_seed, scenario, trial)
};

struct ScenarioSpec {
  std::string name;         ///< unique, e.g. "table2/ntpd-p1"
  scenario::WorldConfig world;
  ClientKind client = ClientKind::kNtpdKnownList;
  AttackKind attack = AttackKind::kRunTime;
  StopCondition stop;
  /// Chronos only: honest hourly rounds completed before the poisoning
  /// lands (the paper's window is N <= 11).
  int chronos_honest_rounds = 6;
  /// population/* only: fleet size hosted by the trial's ClientPopulation
  /// (0 for the single-victim scenarios). Specs are not serialised into
  /// reports, so this does not touch the report schema.
  u32 population_clients = 0;
  /// kCustom only: the trial body. Must be thread-safe (it is invoked
  /// concurrently for different trials) and deterministic in ctx.seed.
  std::function<TrialResult(const ScenarioSpec&, const TrialContext&)>
      trial_fn;
};

/// Named collection of scenarios. Insertion order is preserved — reports
/// list scenarios in registration order, independent of thread timing.
class ScenarioRegistry {
 public:
  /// Adds a spec; throws std::invalid_argument on duplicate names.
  ScenarioRegistry& add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(std::string_view name) const;
  [[nodiscard]] const std::vector<ScenarioSpec>& all() const {
    return specs_;
  }
  /// All specs whose name starts with `prefix` (empty prefix = all).
  [[nodiscard]] std::vector<ScenarioSpec> select(
      std::string_view prefix) const;

  /// The built-in catalogue: Table II clients, boot-time, Chronos, the
  /// default parameter sweeps, then the Table I client matrix
  /// ("table1/<client>-{boot,run}") and the §VI-C boundary runs
  /// ("sec6/n-<N>").
  [[nodiscard]] static ScenarioRegistry builtin();

 private:
  std::vector<ScenarioSpec> specs_;
};

// --- canonical scenario builders -------------------------------------------

/// One Table II row: run-time attack against `client`.
[[nodiscard]] ScenarioSpec table2_scenario(ClientKind client);
/// §IV-A boot-time pipeline with the open-resolver trigger.
[[nodiscard]] ScenarioSpec boot_time_scenario();
/// §VI-C Chronos pool freeze after `honest_rounds` honest queries.
[[nodiscard]] ScenarioSpec chronos_scenario(int honest_rounds = 6);
/// A run-time attack that deterministically fails: the resolver filters
/// fragments (Table V hardening), so spoofed parts are never reassembled
/// and the causal chain breaks at "reassembled with a spoofed part".
/// Exists to exercise the forensics path (--dump / trial_replay): the
/// dump names the exact break point. Short deadline keeps trials cheap.
[[nodiscard]] ScenarioSpec forensics_frag_filter_scenario();

// --- population scenarios ---------------------------------------------------
// Fleet-scale worlds on scenario::ClientPopulation (kCustom trials). The
// trial metric is the fraction of the fleet shifted past
// stop.success_shift; clock_shift_s reports the fleet's mean shift.

/// §VIII-B3 at fleet scale: `clients` NTP clients behind one shared
/// recursive resolver. The trial poisons the resolver's delegation once
/// and measures how far the shift migrates through the fleet as the
/// clients' DNS answers expire.
[[nodiscard]] ScenarioSpec population_shared_resolver_scenario(
    u32 clients = 100'000);
/// §VII-A herd effect: the whole fleet polls a small, fully rate-limiting
/// pool. The metric is the fraction of client-polls answered by KoD or
/// silence; success = the herd actually tripped the limiters.
[[nodiscard]] ScenarioSpec population_ratelimit_herd_scenario(
    u32 clients = 100'000);

// --- parameter sweeps -------------------------------------------------------
// Each returns one spec per value, named "<stem>/<value>". Sweeps use the
// boot-time recipe (the fastest full off-path pipeline) unless noted.

[[nodiscard]] std::vector<ScenarioSpec> mtu_sweep(
    const std::vector<u16>& mtus = {296, 552, 1280, 1500});
[[nodiscard]] std::vector<ScenarioSpec> pool_size_sweep(
    const std::vector<std::size_t>& sizes = {8, 16, 32, 64});
/// Run-time recipe: the rate-limit fraction decides how many upstreams the
/// flood can silence, which is what the run-time attack depends on.
[[nodiscard]] std::vector<ScenarioSpec> rate_limit_sweep(
    const std::vector<double>& fractions = {0.2, 0.38, 0.6, 1.0});
[[nodiscard]] std::vector<ScenarioSpec> ttl_sweep(
    const std::vector<u32>& ttls = {75, 150, 300, 600});

}  // namespace dnstime::campaign
