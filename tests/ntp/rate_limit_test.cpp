#include "ntp/rate_limit.h"

#include <gtest/gtest.h>

namespace dnstime::ntp {
namespace {

using sim::Duration;
using sim::Time;

const Ipv4Addr kClient{10, 0, 0, 7};

RateLimitConfig enabled() {
  RateLimitConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(RateLimiter, DisabledAlwaysResponds) {
  RateLimiter rl{RateLimitConfig{}};
  Time t;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kRespond);
    t = t + Duration::millis(10);
  }
}

TEST(RateLimiter, WellBehavedClientNeverLimited) {
  RateLimiter rl{enabled()};
  Time t;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kRespond) << i;
    t = t + Duration::seconds(64);  // normal poll interval
  }
}

TEST(RateLimiter, SubGapFloodRefusedOutright) {
  // discard-minimum violations: KoD once, then unconditional silence.
  RateLimiter rl{enabled()};
  Time t;
  EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kRespond);
  t = t + Duration::millis(300);
  EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kKod);
  for (int i = 0; i < 50; ++i) {
    t = t + Duration::millis(300);
    EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kDrop);
  }
  EXPECT_NE(rl.check(kClient, t + Duration::millis(100)),
            RateLimiter::Action::kRespond);
}

TEST(RateLimiter, BurstToleratedThenAverageEnforced) {
  // 1 Hz probing (the §VII-A scan cadence): the burst bucket answers the
  // first ~16 queries, after which roughly one token per 8 s remains.
  RateLimiter rl{enabled()};
  Time t;
  int first_half = 0, second_half = 0;
  for (int i = 0; i < 64; ++i) {
    auto action = rl.check(kClient, t);
    if (action == RateLimiter::Action::kRespond) {
      (i < 32 ? first_half : second_half)++;
    }
    t = t + Duration::seconds(1);
  }
  EXPECT_GT(first_half, second_half + 8)
      << "the paper's halves heuristic must fire for this server";
  EXPECT_GE(first_half, 16);  // the burst
  EXPECT_LE(second_half, 6);  // ~1 per 8 s at most
}

TEST(RateLimiter, KodsAreSparseDuringSustainedProbing) {
  // One KoD per dry spell: a trickle of bucket refills restarts the spell
  // every ~8 s, so a 64 s probe sees a handful of KoDs, not a stream.
  RateLimiter rl{enabled()};
  Time t;
  int kods = 0;
  for (int i = 0; i < 64; ++i) {
    if (rl.check(kClient, t) == RateLimiter::Action::kKod) kods++;
    t = t + Duration::seconds(1);
  }
  EXPECT_GE(kods, 1);
  EXPECT_LE(kods, 8);
}

TEST(RateLimiter, RecoversAfterQuietPeriod) {
  RateLimiter rl{enabled()};
  Time t;
  for (int i = 0; i < 40; ++i) {  // sub-gap flood: drains and blocks
    (void)rl.check(kClient, t);
    t = t + Duration::millis(300);
  }
  EXPECT_NE(rl.check(kClient, t), RateLimiter::Action::kRespond);
  // After 2 minutes of silence the bucket has refilled well past 1.
  t = t + Duration::minutes(2);
  EXPECT_EQ(rl.check(kClient, t), RateLimiter::Action::kRespond);
}

TEST(RateLimiter, SpoofedFloodPunishesVictimAddress) {
  // The run-time attack's core: a sub-gap flood claiming to come from the
  // victim keeps the victim limited even though the victim polls politely.
  RateLimiter rl{enabled()};
  Time t;
  for (int i = 0; i < 300; ++i) {
    (void)rl.check(kClient, t);
    t = t + Duration::millis(400);
  }
  // Victim's genuine poll lands 0.3 s after the last flood packet.
  t = t + Duration::millis(300);
  EXPECT_NE(rl.check(kClient, t), RateLimiter::Action::kRespond);
}

TEST(RateLimiter, OtherSourcesUnaffected) {
  RateLimiter rl{enabled()};
  Time t;
  for (int i = 0; i < 50; ++i) {
    (void)rl.check(kClient, t);
    t = t + Duration::millis(200);
  }
  EXPECT_EQ(rl.check(Ipv4Addr{10, 0, 0, 8}, t),
            RateLimiter::Action::kRespond);
}

TEST(RateLimiter, LeakProbabilityAnswersSometimes) {
  auto cfg = enabled();
  cfg.leak_probability = 0.3;
  cfg.send_kod = false;
  RateLimiter rl{cfg, Rng{99}};
  Time t;
  int responded = 0;
  for (int i = 0; i < 300; ++i) {
    if (rl.check(kClient, t) == RateLimiter::Action::kRespond) responded++;
    t = t + Duration::millis(300);
  }
  EXPECT_GT(responded, 50);   // leaks exist
  EXPECT_LT(responded, 180);  // but most are dropped
}

}  // namespace
}  // namespace dnstime::ntp
