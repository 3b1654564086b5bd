// ClientPopulation: fleet-scale worlds must behave like the single-victim
// worlds, only wider. The pins here are the population contract:
// determinism across runs, a genuine shared-resolver poisoning that
// migrates with DNS TTL rollover, the rate-limit herd effect, and the
// <= 28 B/client memory budget.
#include "scenario/population.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "attack/cache_poisoner.h"

namespace dnstime::scenario {
namespace {

using sim::Duration;

PopulationConfig small_config(u32 clients, u64 seed) {
  PopulationConfig pc;
  pc.clients = clients;
  pc.seed = seed;
  return pc;
}

TEST(ClientPopulation, FleetSyncsToTrueTimeHonestly) {
  WorldConfig wc;
  wc.seed = 5;
  World world(wc);
  ClientPopulation pop(world, small_config(2'000, 5));
  // One poll interval plus DNS/exchange slack: every client has resolved
  // and disciplined at least once.
  world.run_for(Duration::seconds(90));
  EXPECT_EQ(pop.metrics().dns_queries, 1u)
      << "the whole fleet shares one in-flight resolver query";
  EXPECT_GT(pop.metrics().polls, 0u);
  EXPECT_GT(pop.metrics().exchanges, 0u);
  EXPECT_LT(pop.metrics().exchanges, pop.metrics().polls)
      << "polls must batch into fewer wire exchanges";
  // Honest servers serve true time; the fleet stays unshifted.
  EXPECT_EQ(pop.fraction_shifted(-1.0), 0.0);
  EXPECT_NEAR(pop.mean_shift_s(), 0.0, 0.05);
  EXPECT_EQ(pop.fraction_on_attacker(), 0.0);
}

/// Every Metrics field plus the bits of mean_shift_s(). Exchanges, KoD and
/// timeout counts move as soon as grouping or batch_cap chunking changes
/// which clients share an exchange, which the report aggregates can miss.
using FleetPin = std::array<u64, 10>;

FleetPin pin(const ClientPopulation& pop) {
  const ClientPopulation::Metrics& m = pop.metrics();
  return {m.polls,   m.exchanges, m.kod_polls, m.timeout_polls,
          m.dns_queries, m.dns_waits, m.steps, m.slews, m.refused,
          std::bit_cast<u64>(pop.mean_shift_s())};
}

TEST(ClientPopulation, EqualSeedsGiveEqualFleets) {
  auto run = [](u64 seed) {
    WorldConfig wc;
    wc.seed = seed;
    World world(wc);
    ClientPopulation pop(world, small_config(1'500, seed));
    world.run_for(Duration::seconds(200));
    return pin(pop);
  };
  const FleetPin first = run(42);
  EXPECT_EQ(first, run(42));
  // polls, exchanges, kod, timeout, dns queries/waits, steps, slews,
  // refused, mean shift.
  EXPECT_EQ(first, (FleetPin{4'503, 768, 227, 75, 3, 71, 0, 0, 0,
                             std::bit_cast<u64>(0.0)}));
}

TEST(ClientPopulation, SharedResolverPoisoningMigratesAcrossFleet) {
  WorldConfig wc;
  wc.seed = 9;
  World world(wc);
  ClientPopulation pop(world, small_config(2'000, 9));
  world.run_for(Duration::seconds(90));  // fleet synced, honest

  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  poisoner.start();
  world.run_for(Duration::seconds(30));  // armed: fragments planted

  // The fleet warmed the resolver's cache, so nothing upstream moves (and
  // nothing can be poisoned) until the cached pool A expires. The fleet
  // still polls honest servers meanwhile.
  const double shifted_before = pop.fraction_shifted(-400.0);
  EXPECT_EQ(shifted_before, 0.0);

  // Two TTL rollovers do the whole job, with no attacker-side trigger at
  // all: the fleet's own re-resolution at the first rollover is the query
  // that reassembles with the planted fragment (delegation hijack); the
  // second rollover's re-resolution follows the hijacked delegation to
  // the attacker's nameserver and hands attacker NTP addresses to the
  // fleet. One more poll interval applies the -500 s time.
  world.run_for(Duration::seconds(
      2 * static_cast<i64>(world.config().pool_a_ttl) + 3 * 64 + 30));
  EXPECT_TRUE(world.delegation_hijacked())
      << "the fleet's own TTL-rollover query must trigger the hijack";
  const double shifted_after = pop.fraction_shifted(-400.0);
  EXPECT_GT(shifted_after, 0.9)
      << "before=" << shifted_before << " after=" << shifted_after;
  EXPECT_GT(shifted_after, shifted_before);
  EXPECT_GT(pop.fraction_on_attacker(), 0.9);
  EXPECT_LT(pop.mean_shift_s(), -400.0);
  // Mid-migration seconds group clients on attacker and pool servers at
  // once, so this pin also covers the ascending-address batch order.
  EXPECT_EQ(pin(pop), (FleetPin{16'644, 2'140, 1'822, 0, 6, 198, 2'000, 0, 0,
                                0xc07f3fffffc00000u}));
}

TEST(ClientPopulation, HerdTripsRateLimitersOnASmallPool) {
  WorldConfig wc;
  wc.seed = 13;
  wc.pool_size = 2;
  wc.rate_limit_fraction = 1.0;
  wc.kod_fraction = 1.0;
  World world(wc);
  PopulationConfig pc = small_config(4'000, 13);
  pc.gateways = 2;   // concentrate sources so per-source buckets fill
  pc.batch_cap = 32;
  ClientPopulation pop(world, pc);
  world.run_for(Duration::seconds(64 * 5));
  const ClientPopulation::Metrics& m = pop.metrics();
  EXPECT_GT(m.kod_polls + m.timeout_polls, 0u)
      << "a herd on a tiny fully-rate-limiting pool must hit the limiters";
  EXPECT_EQ(pin(pop), (FleetPin{12'061, 506, 1'689, 5'044, 4, 292, 0, 0, 0,
                                std::bit_cast<u64>(0.0)}));
  // Later, clients KoD'd a different number of times share exchanges, so
  // one failed exchange holds several poll intervals and each client must
  // back off from its own.
  world.run_for(Duration::seconds(64 * 15));
  EXPECT_EQ(pin(pop), (FleetPin{36'186, 1'423, 7'070, 9'210, 12, 867, 0, 0, 0,
                                std::bit_cast<u64>(0.0)}));
}

TEST(ClientPopulation, ResidentMemoryStaysUnderBudget) {
  WorldConfig wc;
  wc.seed = 21;
  World world(wc);
  ClientPopulation pop(world, small_config(50'000, 21));
  world.run_for(Duration::seconds(150));
  // Measured 23.5 B/client: 19 B of SoA state, a 4-byte index per queued
  // client plus one header per queued batch and one map node per queued
  // instant, the DNS waiters and the per-server poll lists.
  EXPECT_LE(pop.resident_bytes_per_client(), 28.0)
      << "flat SoA state plus queued batches must stay within the "
         "28 B/client population budget";
  EXPECT_GT(pop.metrics().polls, 0u);
}

}  // namespace
}  // namespace dnstime::scenario
