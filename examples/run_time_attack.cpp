// Scenario example: the §IV-B run-time attack against a running ntpd
// (Fig. 3), narrated step by step.
//
// The victim is already synchronised to honest pool servers; the attacker
//  1. hijacks the pool.ntp.org delegation in the victim resolver's cache
//     (fragmentation cache poisoning),
//  2. discovers the victim's upstream servers from the refid of the
//     victim's own NTP responses (scenario P2),
//  3. silences each discovered server towards the victim by abusing NTP
//     rate limiting with spoofed mode-3 floods,
//  4. waits: the client demobilises dead associations, re-queries DNS to
//     replace them — and receives the attacker's fleet.
#include <cstdio>

#include "attack/query_trigger.h"
#include "attack/run_time_attack.h"
#include "ntp/clients/pool_client.h"
#include "scenario/world.h"

using namespace dnstime;

int main() {
  scenario::World world;
  const Ipv4Addr victim_addr{10, 77, 0, 1};

  // Victim: default ntpd — client and server in one, pool directive.
  auto& victim = world.add_host(victim_addr);
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  ntp::PoolClient client(*victim.stack, victim.clock, cfg,
                         ntp::Daemon::kNtpd);
  ntp::NtpServer victim_server(*victim.stack, victim.clock,
                               ntp::ServerConfig{});
  client.attach_server(&victim_server);
  client.start();
  world.run_for(sim::Duration::minutes(12));
  std::printf("[t=%s] victim synchronised, offset %+.3f s, %zu upstreams\n",
              world.loop().now().to_string().c_str(), victim.clock.offset(),
              client.association_count());

  // Step 1: poison the delegation.
  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  poisoner.start();
  world.run_for(sim::Duration::seconds(20));
  attack::QueryTrigger::via_open_resolver(
      world.attacker(), world.resolver_addr(),
      dns::DnsName::from_string("pool.ntp.org"));
  world.run_for(sim::Duration::seconds(10));
  std::printf("[t=%s] delegation hijacked: %s (%llu fragments planted)\n",
              world.loop().now().to_string().c_str(),
              world.delegation_hijacked() ? "yes" : "no",
              static_cast<unsigned long long>(poisoner.fragments_planted()));

  // Steps 2-4: refid discovery + rate-limit abuse until the clock shifts.
  attack::RunTimeConfig rc;
  rc.discovery = attack::RunTimeConfig::Discovery::kRefidLeak;
  rc.victim = victim_addr;
  attack::RunTimeAttack attack(world.attacker(), rc);
  sim::Time start = world.loop().now();
  attack.run(
      [&] { return victim.clock.offset() < -400.0; },
      [&](const attack::AttackOutcome& outcome) {
        std::printf("[t=%s] attack %s after %.0f minutes; discovered %zu "
                    "upstreams via refid\n",
                    outcome.at.to_string().c_str(),
                    outcome.success ? "SUCCEEDED" : "failed",
                    (outcome.at - start).to_seconds() / 60.0,
                    attack.discovered().size());
      });
  // Advance until the shift lands (the orchestrator stops the flood once
  // the success check fires; afterwards surviving honest servers would
  // begin pulling the clock back, so we stop at the moment of success).
  bool shifted = false;
  for (int i = 0; i < 24 && !shifted; ++i) {
    world.run_for(sim::Duration::minutes(10));
    shifted = victim.clock.offset() < -400.0;
  }

  std::printf("[t=%s] victim clock offset: %+.1f s\n",
              world.loop().now().to_string().c_str(), victim.clock.offset());
  return shifted ? 0 : 1;
}
