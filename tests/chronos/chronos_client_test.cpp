// Chronos pool generation and the §VI-C DNS poisoning attack, end to end.
#include "chronos/chronos_client.h"

#include <gtest/gtest.h>

#include "attack/chronos_attack.h"
#include "scenario/world.h"

namespace dnstime::chronos {
namespace {

using attack::ChronosAttack;
using attack::ChronosAttackConfig;
using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

const Ipv4Addr kVictimAddr{10, 77, 0, 2};

ntp::ClientBaseConfig base_config(World& world) {
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  return cfg;
}

TEST(PoolBuilder, UnionGrowsFourPerHour) {
  WorldConfig wc;
  wc.pool_size = 96;  // enough that rotation never repeats in 24 queries
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  PoolBuilder builder(*host.stack, world.resolver_addr());
  builder.start();
  world.run_for(Duration::hours(25));
  EXPECT_TRUE(builder.finished());
  EXPECT_EQ(builder.queries_done(), 24);
  // 4 fresh addresses per hourly query => 96 total ("this results in a
  // maximum of 96 servers").
  EXPECT_EQ(builder.pool().size(), 96u);
}

TEST(PoolBuilder, SmallPoolSaturates) {
  WorldConfig wc;
  wc.pool_size = 12;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  PoolBuilder builder(*host.stack, world.resolver_addr());
  builder.start();
  world.run_for(Duration::hours(25));
  EXPECT_EQ(builder.pool().size(), 12u);  // union saturates at pool size
}

TEST(ChronosAttackBound, MatchesPaperFormula) {
  // 2/3 * (89 + 4N) <= 89  =>  N <= 11 (§VI-C).
  EXPECT_EQ(ChronosAttack::max_tolerable_honest_rounds(89), 11);
  for (int n = 0; n <= 11; ++n) {
    EXPECT_TRUE(ChronosAttack::attacker_wins(n, 89)) << n;
  }
  for (int n = 12; n <= 24; ++n) {
    EXPECT_FALSE(ChronosAttack::attacker_wins(n, 89)) << n;
  }
}

TEST(ChronosAttackBound, FewerRecordsTolerateFewerRounds) {
  // A smaller injection shrinks the window monotonically.
  int last = 1000;
  for (std::size_t count : {89u, 60u, 40u, 20u, 8u}) {
    int n = ChronosAttack::max_tolerable_honest_rounds(count);
    EXPECT_LE(n, last);
    last = n;
  }
  EXPECT_EQ(ChronosAttack::max_tolerable_honest_rounds(8), 1);
}

struct ChronosScenarioResult {
  double clock_offset;
  std::size_t pool_size;
  std::size_t malicious_in_pool;
};

/// Run the full §VI-C attack with the poisoning landing after
/// `honest_rounds` hourly queries; return the victim's end state.
ChronosScenarioResult run_chronos_attack(int honest_rounds) {
  WorldConfig wc;
  wc.pool_size = 96;
  wc.attacker_ntp_count = 89;  // max addresses in one unfragmented response
  // Honest servers answer every Chronos probe here: rate limiting would
  // silence them during panic re-polls and hand the attacker extra wins
  // (that interaction is exercised separately).
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);

  ChronosClient client(*host.stack, host.clock, base_config(world));
  client.start();

  // Let exactly `honest_rounds` hourly queries complete (the first fires
  // at t=0), then poison the resolver cache with the 89-record, TTL>24h
  // RRset before the next one.
  world.run_for(Duration::hours(honest_rounds - 1) + Duration::minutes(30));
  ChronosAttack attack(
      world.attacker(),
      ChronosAttackConfig{.resolver_addr = world.resolver_addr(),
                          .malicious_ntp = world.attacker_ntp_addrs()});
  attack.inject_whitebox(world.resolver());

  // Ride out the rest of the 24 h pool build plus operation time.
  world.run_for(Duration::hours(27 - honest_rounds));

  ChronosScenarioResult r{};
  r.clock_offset = host.clock.offset();
  r.pool_size = client.pool_builder().pool().size();
  for (Ipv4Addr addr : client.pool_builder().pool()) {
    if (world.is_attacker_ntp(addr)) r.malicious_in_pool++;
  }
  return r;
}

TEST(ChronosClient, HonestPoolKeepsTime) {
  WorldConfig wc;
  wc.pool_size = 96;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  auto& host = world.add_host(kVictimAddr);
  host.clock.step(2.0);  // slightly wrong clock
  ChronosClient client(*host.stack, host.clock, base_config(world));
  client.start();
  world.run_for(Duration::hours(6));
  EXPECT_GT(client.updates_accepted(), 0u);
  EXPECT_NEAR(host.clock.offset(), 0.0, 0.5);
}

TEST(ChronosClient, PoisonAtRoundFiveShiftsTime) {
  // N=5 <= 11: attacker controls 89 / (89+20) = 82% > 2/3 of the pool.
  auto r = run_chronos_attack(5);
  EXPECT_EQ(r.malicious_in_pool, 89u);
  EXPECT_NEAR(r.clock_offset, -500.0, 5.0);
}

TEST(ChronosClient, PoisonAtRoundElevenStillWins) {
  // N=11: the paper's exact boundary (89 vs 44 honest -> 66.9% > 2/3).
  auto r = run_chronos_attack(11);
  EXPECT_NEAR(r.clock_offset, -500.0, 5.0);
}

TEST(ChronosClient, PoisonAtRoundTwelveFailsSafe) {
  // N=12: 89 vs 48 honest = 65% < 2/3 — Chronos detects disagreement and
  // refuses to update (clock unchanged).
  auto r = run_chronos_attack(12);
  EXPECT_NEAR(r.clock_offset, 0.0, 0.5);
  EXPECT_GT(r.malicious_in_pool, 0u);  // pool *is* polluted, just not enough
}

}  // namespace
}  // namespace dnstime::chronos
