// Quickstart: the paper's headline result in ~60 lines.
//
// Build a simulated internet (pool.ntp.org + its nameserver + a victim
// resolver + an off-path attacker), poison the resolver's cache through
// IPv4 fragment injection, boot an ntpd-like client behind that resolver,
// and watch its clock step to the attacker's time.
//
//   $ ./quickstart
#include <cstdio>

#include "attack/boot_time_attack.h"
#include "ntp/clients/pool_client.h"
#include "scenario/world.h"

using namespace dnstime;

int main() {
  // A World wires up the whole topology of Fig. 1: pool nameserver,
  // 16 pool NTP servers, the victim's recursive resolver, and the
  // attacker's host + nameserver + NTP fleet serving time shifted -500 s.
  scenario::World world;

  std::printf("[*] attacker: %s   victim resolver: %s\n",
              world.attacker().addr().to_string().c_str(),
              world.resolver_addr().to_string().c_str());

  // Off-path cache poisoning: forged ICMP shrinks the nameserver's path
  // MTU, a spoofed second fragment (checksum-compensated) overwrites the
  // glue records of pool.ntp.org's delegation, and periodic open-resolver
  // queries keep the cache churning until the poison lands.
  attack::BootTimeConfig cfg;
  cfg.poison = world.default_poisoner_config();
  cfg.trigger = attack::BootTimeConfig::Trigger::kOpenResolver;
  attack::BootTimeAttack attack(world.attacker(), cfg);

  attack.run([&] { return world.pool_a_poisoned(); },
             [&](const attack::AttackOutcome& outcome) {
               std::printf(
                   "[*] poisoning %s at t=%s after %llu spoofed fragments\n",
                   outcome.success ? "SUCCEEDED" : "failed",
                   outcome.at.to_string().c_str(),
                   static_cast<unsigned long long>(outcome.fragments_planted));
             });
  world.run_for(sim::Duration::minutes(15));

  // The victim boots an ntpd-style client behind the poisoned resolver.
  auto& victim = world.add_host(Ipv4Addr{10, 77, 0, 1});
  ntp::ClientBaseConfig client_cfg;
  client_cfg.resolver = world.resolver_addr();
  ntp::PoolClient client(*victim.stack, victim.clock, client_cfg,
                         ntp::Daemon::kNtpd);
  client.start();
  world.run_for(sim::Duration::minutes(10));

  std::printf("[*] victim clock offset: %+.1f s (attacker served -500 s)\n",
              victim.clock.offset());
  std::printf("[*] victim's NTP servers:");
  for (Ipv4Addr server : client.current_servers()) {
    std::printf(" %s%s", server.to_string().c_str(),
                world.is_attacker_ntp(server) ? "(attacker!)" : "");
  }
  std::printf("\n");
  return victim.clock.offset() < -400.0 ? 0 : 1;
}
