// End-to-end boot-time attack (§IV-A / Fig. 2): poison first, then the
// victim boots and takes all its time from the attacker.
#include "attack/boot_time_attack.h"

#include <gtest/gtest.h>

#include "ntp/clients/pool_client.h"
#include "scenario/world.h"

namespace dnstime::attack {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

TEST(BootTimeAttack, OpenResolverPipelinePoisonsThenShiftsBootingClient) {
  World world;
  BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.trigger = BootTimeConfig::Trigger::kOpenResolver;
  BootTimeAttack attack(world.attacker(), bc);
  // Success: the resolver hands out attacker NTP addresses for the pool.
  attack.set_success_check([&] { return world.pool_a_poisoned(); });

  std::optional<AttackOutcome> outcome;
  attack.run([&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::minutes(30));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->success);
  EXPECT_GT(outcome->fragments_planted, 0u);

  // The victim boots *after* the poisoning: pure Fig. 2.
  auto& host = world.add_host(Ipv4Addr{10, 77, 0, 9});
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  ntp::PoolClient client(*host.stack, host.clock, cfg, ntp::Daemon::kNtpd);
  client.start();
  world.run_for(Duration::minutes(10));
  EXPECT_NEAR(host.clock.offset(), -500.0, 5.0);
  // Every server the client associated with is the attacker's.
  for (Ipv4Addr server : client.current_servers()) {
    EXPECT_TRUE(world.is_attacker_ntp(server));
  }
}

TEST(BootTimeAttack, SmtpTriggerVariant) {
  World world;
  auto& mail = world.add_host(Ipv4Addr{10, 77, 0, 25});
  SmtpServer smtp(*mail.stack, world.resolver_addr());

  BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.trigger = BootTimeConfig::Trigger::kSmtp;
  bc.smtp_host = mail.stack->addr();
  BootTimeAttack attack(world.attacker(), bc);
  attack.set_success_check([&] { return world.pool_a_poisoned(); });

  std::optional<AttackOutcome> outcome;
  attack.run([&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::minutes(30));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_GT(smtp.mails_received(), 0u);
}

TEST(BootTimeAttack, DeadlineExpiresAgainstHardenedResolver) {
  WorldConfig wc;
  wc.resolver_stack.accept_fragments = false;
  World world(wc);
  BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.trigger = BootTimeConfig::Trigger::kOpenResolver;
  bc.deadline = Duration::minutes(10);
  BootTimeAttack attack(world.attacker(), bc);
  attack.set_success_check([&] { return world.pool_a_poisoned(); });
  std::optional<AttackOutcome> outcome;
  attack.run([&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::minutes(20));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
}

TEST(BootTimeAttack, LowAttackVolume) {
  // §IV-A: "a low attack volume which can be completed with only one low
  // bandwidth attacking host" — fragments per TTL window stays tiny.
  World world;
  BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.poison.spray_width = 8;
  bc.trigger = BootTimeConfig::Trigger::kOpenResolver;
  BootTimeAttack attack(world.attacker(), bc);
  attack.set_success_check([&] { return world.pool_a_poisoned(); });
  std::optional<AttackOutcome> outcome;
  attack.run([&](const AttackOutcome& o) { outcome = o; });
  world.run_for(Duration::minutes(30));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->success);
  // Replants every 25 s, 8 fragments each: even a 10-minute wait stays
  // well under a thousand packets.
  EXPECT_LT(outcome->fragments_planted, 1000u);
}

}  // namespace
}  // namespace dnstime::attack
