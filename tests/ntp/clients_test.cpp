// Behavioural tests of the NTP client models against a live World:
// boot-time synchronisation, boot-time attack applicability (Table I "all
// clients"), and the per-implementation run-time DNS behaviour that
// decides run-time attackability.
#include <gtest/gtest.h>

#include "attack/chronos_attack.h"
#include "attack/ratelimit_abuser.h"
#include "ntp/clients/ntpclient.h"
#include "ntp/clients/ntpdate.h"
#include "ntp/clients/pool_client.h"
#include "ntp/clients/sntp_timesyncd.h"
#include "scenario/world.h"

namespace dnstime::ntp {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

const Ipv4Addr kVictimAddr{10, 77, 0, 1};

ClientBaseConfig base_config(World& world) {
  ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  return cfg;
}

std::unique_ptr<NtpClientBase> make_client(const std::string& kind,
                                           World& world,
                                           scenario::World::Host& host) {
  auto cfg = base_config(world);
  if (kind == "ntpd") {
    return std::make_unique<PoolClient>(*host.stack, host.clock, cfg,
                                        Daemon::kNtpd);
  }
  if (kind == "chrony") {
    return std::make_unique<PoolClient>(*host.stack, host.clock, cfg,
                                        Daemon::kChrony);
  }
  if (kind == "openntpd") {
    return std::make_unique<PoolClient>(*host.stack, host.clock, cfg,
                                        Daemon::kOpenntpd);
  }
  if (kind == "timesyncd") {
    return std::make_unique<TimesyncdClient>(*host.stack, host.clock, cfg);
  }
  if (kind == "ntpclient") {
    return std::make_unique<NtpclientClient>(*host.stack, host.clock, cfg);
  }
  if (kind == "android") {
    return std::make_unique<AndroidSntpClient>(*host.stack, host.clock, cfg);
  }
  if (kind == "ntpdate") {
    return std::make_unique<NtpdateClient>(*host.stack, host.clock, cfg);
  }
  return nullptr;
}

class AllClients : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(ClientKinds, AllClients,
                         ::testing::Values("ntpd", "chrony", "openntpd",
                                           "timesyncd", "ntpclient",
                                           "android", "ntpdate"),
                         [](const auto& info) { return info.param; });

TEST_P(AllClients, BootSyncCorrectsWrongClock) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;  // friendly servers
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  host.clock.step(300.0, world.loop().now());  // dead RTC: clock is off
  auto client = make_client(GetParam(), world, host);
  client->start();
  world.run_for(Duration::minutes(15));
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0)
      << GetParam() << " failed to synchronise at boot";
  EXPECT_GE(client->dns_queries(), 1u);
}

TEST_P(AllClients, BootTimeAttackShiftsEveryClient) {
  // Table I: every implementation is vulnerable at boot-time. Poisoned
  // cache => the very first DNS answer is the attacker's fleet.
  World world;
  attack::ChronosAttack inject(
      world.attacker(),
      attack::ChronosAttackConfig{.resolver_addr = world.resolver_addr(),
                                  .malicious_ntp = world.attacker_ntp_addrs()});
  inject.inject_whitebox(world.resolver());
  ASSERT_TRUE(world.pool_a_poisoned());

  auto& host = world.add_host(kVictimAddr);
  auto client = make_client(GetParam(), world, host);
  client->start();
  world.run_for(Duration::minutes(20));
  EXPECT_NEAR(host.clock.offset(), -500.0, 5.0)
      << GetParam() << " resisted the boot-time attack";
}

TEST(NtpdClient, GrowsToSixAssociations) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kNtpd);
  client.start();
  world.run_for(Duration::minutes(20));
  EXPECT_EQ(client.association_count(), 6u);  // NTP_MAXCLOCK minus pool slots
}

// Both daemons that query DNS at run time replace flooded associations.
class RunTimeRefill : public ::testing::TestWithParam<Daemon> {};

INSTANTIATE_TEST_SUITE_P(Daemons, RunTimeRefill,
                         ::testing::Values(Daemon::kNtpd, Daemon::kChrony),
                         [](const auto& info) {
                           return info.param == Daemon::kNtpd ? "ntpd"
                                                              : "chrony";
                         });

TEST_P(RunTimeRefill, RunTimeFloodForcesDnsRequery) {
  World world;  // all pool servers rate limit
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world), GetParam());
  client.start();
  world.run_for(Duration::minutes(10));
  u64 refills_before = client.dns_refills();
  ASSERT_GT(client.association_count(), 0u);

  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::minutes(20));
  EXPECT_GT(client.dns_refills(), refills_before)
      << "flood did not force new DNS lookups";
}

TEST(NtpdClient, SystemPeerLeaksViaAttachedServer) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kNtpd);
  SystemClock& shared_clock = host.clock;
  NtpServer victim_server(*host.stack, shared_clock, ServerConfig{});
  client.attach_server(&victim_server);
  client.start();
  world.run_for(Duration::minutes(10));
  EXPECT_NE(client.system_peer(), kAnyAddr);
  EXPECT_EQ(victim_server.upstream(), client.system_peer());
}

TEST(OpenntpdClient, NeverQueriesDnsAtRunTime) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kOpenntpd);
  client.start();
  world.run_for(Duration::minutes(10));
  u64 queries_after_boot = client.dns_queries();
  ASSERT_EQ(queries_after_boot, 1u);

  // Kill every server: openntpd just stops synchronising (§V-A2).
  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::hours(1));
  EXPECT_EQ(client.dns_queries(), queries_after_boot);
}

TEST(OpenntpdClient, RestartRequeriesDnsOnce) {
  // §V-A2: a silenced openntpd comes back only through a restart, whose
  // boot-time lookup then decides its servers — here a poisoned answer.
  World world;
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kOpenntpd);
  client.start();
  world.run_for(Duration::minutes(10));
  std::vector<Ipv4Addr> honest = client.current_servers();
  ASSERT_EQ(honest.size(), 4u);

  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::hours(1));
  ASSERT_EQ(client.dns_queries(), 1u);
  ASSERT_EQ(client.current_servers(), honest);

  attack::ChronosAttack inject(
      world.attacker(),
      attack::ChronosAttackConfig{.resolver_addr = world.resolver_addr(),
                                  .malicious_ntp = world.attacker_ntp_addrs()});
  inject.inject_whitebox(world.resolver());
  client.restart();
  world.run_for(Duration::minutes(30));
  EXPECT_EQ(client.dns_queries(), 2u);
  EXPECT_EQ(client.current_servers(), world.attacker_ntp_addrs());
}

TEST(OpenntpdClient, RestartWhilePollsAreInFlight) {
  // The dropped associations' answers still arrive after the restart.
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  host.clock.step(300.0, world.loop().now());
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kOpenntpd);
  client.start();
  world.run_for(Duration::millis(2010));  // first round sent at 2 s
  client.restart();
  world.run_for(Duration::minutes(10));
  EXPECT_EQ(client.current_servers().size(), 4u);
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0);
}

TEST(OpenntpdClient, ConstraintRejectsShiftedTime) {
  // §V-A1: the HTTPS Date-header option bounds acceptable offsets.
  World world;
  attack::ChronosAttack inject(
      world.attacker(),
      attack::ChronosAttackConfig{.resolver_addr = world.resolver_addr(),
                                  .malicious_ntp = world.attacker_ntp_addrs()});
  inject.inject_whitebox(world.resolver());

  auto& host = world.add_host(kVictimAddr);
  // HTTPS date is accurate to ~a minute.
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kOpenntpd, /*constraint_window=*/60.0);
  client.start();
  world.run_for(Duration::minutes(20));
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0);  // -500 s was rejected
}

TEST(TimesyncdClient, WalksCachedListThenRequeries) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  TimesyncdClient client(*host.stack, host.clock, base_config(world));
  client.start();
  world.run_for(Duration::minutes(5));
  ASSERT_EQ(client.current_servers().size(), 4u);  // cached DNS answer
  u64 lookups = client.dns_lookups();

  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::minutes(30));
  EXPECT_GT(client.dns_lookups(), lookups)
      << "exhausting the cached list must trigger a DNS re-query";
}

TEST(NtpclientClient, SingleServerNoRequery) {
  World world;
  auto& host = world.add_host(kVictimAddr);
  NtpclientClient client(*host.stack, host.clock, base_config(world));
  client.start();
  world.run_for(Duration::minutes(5));
  EXPECT_EQ(client.current_servers().size(), 1u);
  u64 queries = client.dns_queries();
  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::minutes(30));
  EXPECT_EQ(client.dns_queries(), queries);
}

TEST(AndroidSntpClient, ResolvesEveryQuery) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  AndroidSntpClient client(*host.stack, host.clock, base_config(world));
  client.start();
  world.run_for(Duration::minutes(10));
  // ~1 lookup per poll interval (64 s) => roughly 9-10 in 10 minutes.
  EXPECT_GE(client.dns_queries(), 5u);
}

TEST(NtpdateClient, OneShotStepsClockAndExits) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  host.clock.step(-300.0, world.loop().now());
  NtpdateClient client(*host.stack, host.clock, base_config(world));
  std::optional<double> applied;
  client.run([&](double offset) { applied = offset; });
  world.run_for(Duration::minutes(2));
  ASSERT_TRUE(applied.has_value());
  EXPECT_NEAR(*applied, 300.0, 1.0);
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0);
}

TEST(ClientDiscipline, PanicThresholdRefusesHugeRunTimeShift) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  wc.attacker_time_shift = -2000.0;  // beyond ntpd's 1000 s panic limit
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  PoolClient client(*host.stack, host.clock, base_config(world),
                    Daemon::kNtpd);
  client.start();
  world.run_for(Duration::minutes(10));
  ASSERT_NEAR(host.clock.offset(), 0.0, 1.0);

  // Now poison + kill servers: the client switches to attacker servers but
  // must refuse the 2000 s run-time step.
  attack::ChronosAttack inject(
      world.attacker(),
      attack::ChronosAttackConfig{.resolver_addr = world.resolver_addr(),
                                  .malicious_ntp = world.attacker_ntp_addrs()});
  inject.inject_whitebox(world.resolver());
  attack::RateLimitAbuser abuser(world.attacker(), kVictimAddr);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::hours(2));
  EXPECT_NEAR(host.clock.offset(), 0.0, 1.0)
      << "panic threshold must hold at run time";
}

}  // namespace
}  // namespace dnstime::ntp
