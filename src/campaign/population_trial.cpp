// Population-scale kCustom trials: fleets of clients on
// scenario::ClientPopulation instead of a single victim host.
//
// Both trials report the fleet-shift metric: TrialResult::metric is the
// fraction of the fleet shifted past kSuccessShift (or the
// herd-exhaustion fraction for the rate-limit scenario), and
// clock_shift_s is the fleet's mean shift. No new report fields — the
// single-victim report schema (and its byte-identical baselines) are
// untouched.
#include "attack/cache_poisoner.h"
#include "campaign/scenario_spec.h"
#include "scenario/population.h"

namespace dnstime::campaign {
namespace {

using scenario::ClientPopulation;
using scenario::PopulationConfig;
using scenario::World;
using sim::Duration;

/// The poisoning opener. Unlike the single-victim trials there is no
/// attacker-side query trigger: the fleet warmed the shared resolver's
/// cache, so the poisoner just keeps fragments planted and the fleet's own
/// TTL-rollover re-resolution is the query that reassembles with them.
void arm_poisoner(World& world, attack::CachePoisoner& poisoner) {
  poisoner.start();
  world.run_for(Duration::seconds(30));
}

TrialResult shared_resolver_trial(const ScenarioSpec& spec,
                                  const TrialContext& ctx) {
  TrialResult result;
  scenario::WorldConfig wc = spec.world;
  wc.seed = ctx.seed;
  World world(wc);

  PopulationConfig pc;
  pc.clients = kPopulationClients;
  pc.seed = ctx.seed;
  ClientPopulation pop(world, pc);

  // Warm-up: the fleet resolves honestly and synchronises to true time
  // (one full poll interval plus DNS/exchange slack).
  world.run_for(Duration::seconds(i64{scenario::kPollSeconds} + 30));

  const sim::Time attack_start = world.loop().now();
  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  arm_poisoner(world, poisoner);

  // Migration takes two TTL rollovers (hijack the delegation, then serve
  // attacker A records) plus re-poll slack; run in slices and stop as
  // soon as a fleet majority has shifted.
  const double threshold = kSuccessShift;
  const Duration budget =
      Duration::seconds(2 * static_cast<i64>(wc.pool_a_ttl) +
                        3 * i64{scenario::kPollSeconds}) +
      spec.stop.settle;
  Duration spent;
  const Duration slice = Duration::seconds(10);
  while (spent < budget && pop.fraction_shifted(threshold) < 0.5) {
    world.run_for(slice);
    spent = spent + slice;
  }

  result.metric = pop.fraction_shifted(threshold);
  result.clock_shift_s = pop.mean_shift_s();
  result.success = result.metric >= 0.5;
  result.duration_s =
      (world.loop().now() - attack_start).to_seconds();
  result.fragments_planted = poisoner.fragments_planted();
  result.replant_rounds = poisoner.replant_rounds();
  return result;
}

TrialResult ratelimit_herd_trial(const ScenarioSpec& spec,
                                 const TrialContext& ctx) {
  TrialResult result;
  scenario::WorldConfig wc = spec.world;
  wc.seed = ctx.seed;
  World world(wc);

  PopulationConfig pc;
  pc.clients = kPopulationClients;
  pc.seed = ctx.seed;
  // Few gateways against a small pool: the per-source token buckets see
  // the herd, not a diluted trickle.
  pc.gateways = 4;
  pc.batch_cap = 64;
  ClientPopulation pop(world, pc);

  const sim::Time start = world.loop().now();
  world.run_for(Duration::seconds(i64{scenario::kPollSeconds} * 5));

  const ClientPopulation::Metrics& m = pop.metrics();
  const u64 starved = m.kod_polls + m.timeout_polls;
  result.metric = m.polls == 0 ? 0.0
                               : static_cast<double>(starved) /
                                     static_cast<double>(m.polls);
  result.clock_shift_s = pop.mean_shift_s();
  result.success = m.kod_polls > 0;
  result.duration_s = (world.loop().now() - start).to_seconds();
  return result;
}

}  // namespace

ScenarioSpec population_shared_resolver_scenario() {
  ScenarioSpec spec;
  spec.name = "population/shared-resolver-" +
              std::to_string(kPopulationClients / 1000) + "k";
  spec.attack = AttackKind::kCustom;
  spec.stop.deadline = sim::Duration::minutes(15);
  spec.stop.settle = sim::Duration::minutes(2);
  spec.trial_fn = shared_resolver_trial;
  return spec;
}

ScenarioSpec population_ratelimit_herd_scenario() {
  ScenarioSpec spec;
  spec.name = "population/ratelimit-herd-" +
              std::to_string(kPopulationClients / 1000) + "k";
  spec.attack = AttackKind::kCustom;
  spec.world.pool_size = 4;
  spec.world.rate_limit_fraction = 1.0;
  spec.world.kod_fraction = 1.0;
  spec.stop.deadline = sim::Duration::minutes(10);
  spec.stop.settle = sim::Duration::minutes(1);
  spec.trial_fn = ratelimit_herd_trial;
  return spec;
}

}  // namespace dnstime::campaign
