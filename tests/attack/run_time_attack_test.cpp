// End-to-end run-time attacks (§IV-B / Fig. 3 / Table II): the victim is
// synchronised to honest pool servers; the attacker poisons the
// delegation, removes the victim's associations via spoofed rate-limit
// floods, and waits for the victim to re-query DNS and step to -500 s.
#include "attack/run_time_attack.h"

#include <gtest/gtest.h>

#include "attack/query_trigger.h"
#include "ntp/clients/pool_client.h"
#include "ntp/clients/sntp_timesyncd.h"
#include "scenario/world.h"

namespace dnstime::attack {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

const Ipv4Addr kVictimAddr{10, 77, 0, 1};

ntp::ClientBaseConfig client_config(World& world) {
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  return cfg;
}

/// Bring up a victim, let it synchronise honestly, then poison the
/// delegation through the real fragmentation pipeline.
void poison_via_fragments(World& world) {
  auto poisoner = std::make_shared<CachePoisoner>(
      world.attacker(), world.default_poisoner_config());
  poisoner->start();
  world.run_for(Duration::seconds(20));
  QueryTrigger::via_open_resolver(world.attacker(), world.resolver_addr(),
                                  dns::DnsName::from_string("pool.ntp.org"));
  world.run_for(Duration::seconds(10));
  ASSERT_TRUE(world.delegation_hijacked());
  poisoner->stop();
}

TEST(RunTimeAttack, P1KnownListShiftsNtpd) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  ntp::PoolClient client(*host.stack, host.clock, client_config(world),
                         ntp::Daemon::kNtpd);
  client.start();
  world.run_for(Duration::minutes(10));
  ASSERT_NEAR(host.clock.offset(), 0.0, 1.0);  // honestly synchronised

  poison_via_fragments(world);

  RunTimeConfig rc;
  rc.discovery = RunTimeConfig::Discovery::kKnownList;
  rc.known_servers = world.pool_server_addrs();  // §IV-B2a enumeration
  rc.victim = kVictimAddr;
  RunTimeAttack attack(world.attacker(), rc);
  std::optional<AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() < -400.0; },
             [&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::hours(3));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_NEAR(host.clock.offset(), -500.0, 5.0);
}

TEST(RunTimeAttack, P2RefidLeakShiftsNtpdSlower) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  ntp::PoolClient client(*host.stack, host.clock, client_config(world),
                         ntp::Daemon::kNtpd);
  ntp::NtpServer victim_server(*host.stack, host.clock, ntp::ServerConfig{});
  client.attach_server(&victim_server);  // default ntpd: also a server
  client.start();
  world.run_for(Duration::minutes(10));
  ASSERT_NEAR(host.clock.offset(), 0.0, 1.0);

  poison_via_fragments(world);

  RunTimeConfig rc;
  rc.discovery = RunTimeConfig::Discovery::kRefidLeak;
  rc.victim = kVictimAddr;
  RunTimeAttack attack(world.attacker(), rc);
  std::optional<AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() < -400.0; },
             [&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::hours(4));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success) << "P2 should still succeed, just slower";
  EXPECT_GT(attack.discovered().size(), 1u);  // learned upstreams one by one
}

TEST(RunTimeAttack, ConfigInterfaceDiscoveryWorks) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  ntp::PoolClient client(*host.stack, host.clock, client_config(world),
                         ntp::Daemon::kNtpd);
  ntp::ServerConfig vs;
  vs.open_config_interface = true;  // the 5.3% case
  ntp::NtpServer victim_server(*host.stack, host.clock, vs);
  client.attach_server(&victim_server);
  client.start();
  world.run_for(Duration::minutes(10));

  poison_via_fragments(world);

  RunTimeConfig rc;
  rc.discovery = RunTimeConfig::Discovery::kConfigInterface;
  rc.victim = kVictimAddr;
  RunTimeAttack attack(world.attacker(), rc);
  std::optional<AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() < -400.0; },
             [&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::hours(4));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
}

TEST(RunTimeAttack, TimesyncdFallsAfterListExhaustion) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  ntp::TimesyncdClient client(*host.stack, host.clock, client_config(world));
  client.start();
  world.run_for(Duration::minutes(5));
  ASSERT_NEAR(host.clock.offset(), 0.0, 1.0);

  poison_via_fragments(world);

  RunTimeConfig rc;
  rc.discovery = RunTimeConfig::Discovery::kKnownList;
  rc.known_servers = world.pool_server_addrs();
  rc.victim = kVictimAddr;
  RunTimeAttack attack(world.attacker(), rc);
  std::optional<AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() < -400.0; },
             [&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::hours(2));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
}

TEST(RunTimeAttack, FailsWhenNoServerRateLimits) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;  // nothing to abuse
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  ntp::PoolClient client(*host.stack, host.clock, client_config(world),
                         ntp::Daemon::kNtpd);
  client.start();
  world.run_for(Duration::minutes(10));
  poison_via_fragments(world);

  RunTimeConfig rc;
  rc.discovery = RunTimeConfig::Discovery::kKnownList;
  rc.known_servers = world.pool_server_addrs();
  rc.victim = kVictimAddr;
  rc.deadline = Duration::hours(1);
  RunTimeAttack attack(world.attacker(), rc);
  std::optional<AttackOutcome> outcome;
  attack.run([&] { return host.clock.offset() < -400.0; },
             [&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::hours(2));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success)
      << "without rate limiting the associations cannot be removed";
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0);
}

}  // namespace
}  // namespace dnstime::attack
