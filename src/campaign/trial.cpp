#include "campaign/trial.h"

#include <optional>
#include <stdexcept>

#include "attack/boot_time_attack.h"
#include "attack/chronos_attack.h"
#include "attack/query_trigger.h"
#include "attack/run_time_attack.h"
#include "campaign/runner.h"
#include "chronos/chronos_client.h"
#include "ntp/clients/ntpclient.h"
#include "ntp/clients/ntpdate.h"
#include "ntp/clients/pool_client.h"
#include "ntp/clients/sntp_timesyncd.h"
#include "obs/counters.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "scenario/world.h"

namespace dnstime::campaign {
namespace {

using scenario::World;
using sim::Duration;

const Ipv4Addr kVictim{10, 77, 0, 1};

/// Fragmentation cache poisoning of the resolver's delegation — the common
/// first stage of every run-time trial. The poisoner lives in the caller's
/// scope for the rest of the trial so replants keep the cache primed.
void poison_delegation(World& world, attack::CachePoisoner& poisoner) {
  DNSTIME_TRACE_BEGIN(world.loop().now().ns(), "trial", "poison-delegation");
  DNSTIME_PROV_EVENT(phase(world.loop().now().ns(), "poison-delegation"));
  poisoner.start();
  world.run_for(Duration::seconds(20));
  attack::QueryTrigger::via_open_resolver(
      world.attacker(), world.resolver_addr(),
      dns::DnsName::from_string("pool.ntp.org"));
  world.run_for(Duration::seconds(10));
  DNSTIME_TRACE_END(world.loop().now().ns(), "trial", "poison-delegation");
}

/// The victim's NTP daemon, the same for every recipe.
std::unique_ptr<ntp::NtpClientBase> make_client(ClientKind kind, World& world,
                                                World::Host& host) {
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  net::NetStack& st = *host.stack;
  ntp::Daemon daemon = ntp::Daemon::kNtpd;
  switch (kind) {
    case ClientKind::kNtpdKnownList:
    case ClientKind::kNtpdRefid:
      break;
    case ClientKind::kChrony:
      // chrony backs off its poll interval under persistent failure.
      cfg.poll_interval = Duration::seconds(192);
      daemon = ntp::Daemon::kChrony;
      break;
    case ClientKind::kOpenntpd:
      daemon = ntp::Daemon::kOpenntpd;
      break;
    case ClientKind::kNtpdate:
      return std::make_unique<ntp::NtpdateClient>(st, host.clock, cfg);
    case ClientKind::kAndroid:
      return std::make_unique<ntp::AndroidSntpClient>(st, host.clock, cfg);
    case ClientKind::kNtpclient:
      return std::make_unique<ntp::NtpclientClient>(st, host.clock, cfg);
    case ClientKind::kTimesyncd:
      return std::make_unique<ntp::TimesyncdClient>(st, host.clock, cfg);
  }
  return std::make_unique<ntp::PoolClient>(st, host.clock, cfg, daemon);
}

/// The victim host's daemon. ntpd also serves NTP from the same process
/// (the refid leak), so it gets a co-located server, declared first so it
/// outlives the client that points at it.
struct Victim {
  Victim(ClientKind kind, World& world, World::Host& host)
      : client(make_client(kind, world, host)) {
    if (kind == ClientKind::kNtpdKnownList ||
        kind == ClientKind::kNtpdRefid) {
      server = std::make_unique<ntp::NtpServer>(*host.stack, host.clock,
                                                ntp::ServerConfig{});
      static_cast<ntp::PoolClient&>(*client).attach_server(server.get());
    }
  }
  std::unique_ptr<ntp::NtpServer> server;
  std::unique_ptr<ntp::NtpClientBase> client;
};

/// Advance the world in slices until `done` reports true or `budget` runs
/// out; returns the simulated time consumed.
Duration run_until(World& world, Duration budget, Duration slice,
                   const std::function<bool()>& done) {
  Duration spent;
  while (spent < budget && !done()) {
    world.run_for(slice);
    spent = spent + slice;
  }
  return spent;
}

TrialResult run_time_trial(const ScenarioSpec& spec, TrialResult result) {
  scenario::WorldConfig wc = spec.world;
  wc.seed = result.seed;
  World world(wc);

  auto& host = world.add_host(kVictim);
  Victim victim(spec.client, world, host);
  if (spec.stop.restart_after && spec.client != ClientKind::kOpenntpd) {
    throw std::invalid_argument("scenario '" + spec.name +
                                "': restart_after needs an openntpd victim");
  }
  DNSTIME_TRACE_BEGIN(world.loop().now().ns(), "trial", "honest-sync");
  DNSTIME_PROV_EVENT(phase(world.loop().now().ns(), "honest-sync"));
  victim.client->start();
  world.run_for(Duration::minutes(12));
  DNSTIME_TRACE_END(world.loop().now().ns(), "trial", "honest-sync");
  if (host.clock.offset() < -1.0) {
    result.error = "victim failed to synchronise honestly before the attack";
    result.clock_shift_s = host.clock.offset();
    return result;
  }

  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  poison_delegation(world, poisoner);

  sim::Time attack_start = world.loop().now();
  attack::RunTimeConfig rc;
  rc.victim = kVictim;
  rc.discovery = spec.client == ClientKind::kNtpdRefid
                     ? attack::RunTimeConfig::Discovery::kRefidLeak
                     : attack::RunTimeConfig::Discovery::kKnownList;
  rc.known_servers = world.pool_server_addrs();
  rc.deadline = spec.stop.deadline;
  attack::RunTimeAttack attack(world.attacker(), rc);
  std::optional<attack::AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() <= spec.stop.success_shift; },
             [&](const attack::AttackOutcome& o) { outcome = o; });

  if (spec.stop.restart_after) {
    // openntpd never re-queries DNS: the attack starves it until the
    // operator/watchdog restarts the daemon, whose boot-time lookup then
    // hits the poisoned cache.
    auto& ontpd = static_cast<ntp::PoolClient&>(*victim.client);
    world.loop().schedule_after(*spec.stop.restart_after,
                                [&ontpd] { ontpd.restart(); });
  }

  run_until(world, spec.stop.deadline + spec.stop.settle,
            Duration::minutes(5), [&] { return outcome.has_value(); });

  result.clock_shift_s = host.clock.offset();
  result.fragments_planted = poisoner.fragments_planted();
  if (outcome && outcome->success) {
    result.success = true;
    result.duration_s = (outcome->at - attack_start).to_seconds();
    result.replant_rounds = outcome->replant_rounds;
  } else {
    result.duration_s = spec.stop.deadline.to_seconds();
  }
  return result;
}

TrialResult boot_time_trial(const ScenarioSpec& spec, TrialResult result) {
  scenario::WorldConfig wc = spec.world;
  wc.seed = result.seed;
  World world(wc);

  attack::BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.trigger = attack::BootTimeConfig::Trigger::kOpenResolver;
  bc.deadline = spec.stop.deadline;
  attack::BootTimeAttack attack(world.attacker(), bc);
  attack.set_success_check([&] { return world.pool_a_poisoned(); });

  sim::Time attack_start = world.loop().now();
  std::optional<attack::AttackOutcome> outcome;
  attack.run([&](const attack::AttackOutcome& o) { outcome = o; });
  run_until(world, spec.stop.deadline + Duration::minutes(1),
            Duration::seconds(30), [&] { return outcome.has_value(); });

  if (outcome) {
    result.fragments_planted = outcome->fragments_planted;
    result.replant_rounds = outcome->replant_rounds;
  }
  if (!outcome || !outcome->success) {
    result.duration_s = spec.stop.deadline.to_seconds();
    return result;
  }
  result.duration_s = (outcome->at - attack_start).to_seconds();

  // Fig. 2's second half: a victim that boots after the poisoning takes
  // all of its time from the attacker.
  auto& host = world.add_host(kVictim);
  Victim victim(spec.client, world, host);
  DNSTIME_TRACE_BEGIN(world.loop().now().ns(), "trial", "victim-boot");
  DNSTIME_PROV_EVENT(phase(world.loop().now().ns(), "victim-boot"));
  victim.client->start();
  world.run_for(spec.stop.settle);
  DNSTIME_TRACE_END(world.loop().now().ns(), "trial", "victim-boot");
  result.clock_shift_s = host.clock.offset();
  result.success = result.clock_shift_s <= spec.stop.success_shift;
  return result;
}

TrialResult chronos_trial(const ScenarioSpec& spec, TrialResult result) {
  scenario::WorldConfig wc = spec.world;
  wc.seed = result.seed;
  World world(wc);

  auto& victim = world.add_host(kVictim);
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  chronos::ChronosClient client(*victim.stack, victim.clock, cfg);
  client.start();

  // Let N honest hourly pool-building rounds complete, then poison —
  // the §VI-C closed form says the attacker wins iff N <= 11. N = 0
  // poisons before the first honest query completes.
  if (spec.chronos_honest_rounds > 0) {
    DNSTIME_TRACE_BEGIN(world.loop().now().ns(), "trial", "honest-rounds");
    DNSTIME_PROV_EVENT(phase(world.loop().now().ns(), "honest-rounds"));
    world.run_for(Duration::hours(spec.chronos_honest_rounds - 1) +
                  Duration::minutes(30));
    DNSTIME_TRACE_END(world.loop().now().ns(), "trial", "honest-rounds");
  }
  attack::ChronosAttack attack(
      world.attacker(),
      attack::ChronosAttackConfig{
          .resolver_addr = world.resolver_addr(),
          .malicious_ntp = world.attacker_ntp_addrs()});
  attack.inject_whitebox(world.resolver());

  DNSTIME_TRACE_BEGIN(world.loop().now().ns(), "trial", "shift");
  DNSTIME_PROV_EVENT(phase(world.loop().now().ns(), "shift"));
  Duration spent = run_until(
      world, spec.stop.deadline + spec.stop.settle, Duration::hours(1),
      [&] { return victim.clock.offset() <= spec.stop.success_shift; });
  DNSTIME_TRACE_END(world.loop().now().ns(), "trial", "shift");

  result.clock_shift_s = victim.clock.offset();
  result.success = result.clock_shift_s <= spec.stop.success_shift;
  result.duration_s = result.success ? spent.to_seconds()
                                     : spec.stop.deadline.to_seconds();
  // The §VI-C metric: what fraction of the final pool does the attacker
  // control? > 2/3 hands over the Chronos clock.
  std::size_t malicious = 0;
  const auto& pool = client.pool_builder().pool();
  for (Ipv4Addr addr : pool) {
    if (world.is_attacker_ntp(addr)) malicious++;
  }
  result.metric = pool.empty() ? 0.0
                               : static_cast<double>(malicious) /
                                     static_cast<double>(pool.size());
  return result;
}

}  // namespace

TrialResult run_trial(const ScenarioSpec& spec, const TrialContext& ctx) {
  TrialResult result;
  result.trial = ctx.trial;
  result.seed = ctx.seed;
  switch (spec.attack) {
    case AttackKind::kRunTime:
      return run_time_trial(spec, std::move(result));
    case AttackKind::kBootTime:
      return boot_time_trial(spec, std::move(result));
    case AttackKind::kChronos:
      return chronos_trial(spec, std::move(result));
    case AttackKind::kCustom:
      if (!spec.trial_fn) {
        throw std::invalid_argument("scenario '" + spec.name +
                                    "' is kCustom but has no trial_fn");
      }
      result = spec.trial_fn(spec, ctx);
      result.trial = ctx.trial;
      result.seed = ctx.seed;
      return result;
  }
  throw std::logic_error("unknown attack kind");
}

TrialResult execute_trial(const ScenarioSpec& spec, u64 campaign_seed,
                          u32 trial, obs::FlightRecorder& flight,
                          obs::TraceRecorder* trace) {
  TrialContext ctx;
  ctx.campaign_seed = campaign_seed;
  ctx.trial = trial;
  ctx.seed = CampaignRunner::trial_seed(campaign_seed, spec, trial);
  // Meta before the trial builds its World: the World feeds the flight
  // recorder the attacker-controlled addresses, and the meta seeds the
  // provenance stream its stamps draw from.
  flight.set_meta(spec.name, campaign_seed, trial, ctx.seed);
  if (trace != nullptr) trace->set_meta(spec.name, campaign_seed, trial);
  TrialResult result;
  {
    obs::ScopedFlightRecorder install_flight(&flight);
    obs::ScopedTrace install_trace(trace);
    try {
      result = run_trial(spec, ctx);
    } catch (const std::exception& e) {
      result.error = e.what();
    } catch (...) {
      result.error = "unknown exception";
    }
  }
  if (!result.error.empty()) {
    // A throw left `result` default-constructed: give it its identity.
    result.trial = trial;
    result.seed = ctx.seed;
    flight.error(result.error);
  }
  DNSTIME_HIST("obs.flight_ring_occupancy", static_cast<u64>(flight.size()));
  DNSTIME_COUNT_ADD("obs.flight_events", flight.recorded());
  DNSTIME_COUNT_ADD("obs.flight_overwritten", flight.overwritten());
  if (trace != nullptr) {
    DNSTIME_COUNT_ADD("obs.trace_events", trace->size());
    DNSTIME_COUNT_ADD("obs.trace_dropped", trace->dropped());
  }
  return result;
}

std::string narrative_json(const obs::FlightRecorder& flight,
                           const TrialResult& result) {
  obs::FlightRecorder::DumpContext ctx;
  ctx.has_result = true;
  ctx.success = result.success;
  ctx.duration_s = result.duration_s;
  ctx.clock_shift_s = result.clock_shift_s;
  ctx.error = result.error;
  return flight.to_json(ctx);
}

}  // namespace dnstime::campaign
