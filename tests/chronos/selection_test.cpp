// Property tests of the Chronos trim-select algorithm: the 2/3 security
// boundary must hold exactly (§VI: "the security guarantees of Chronos
// vanish if the attacker is able to control more than 2/3 of the NTP
// servers in the pool").
#include "chronos/selection.h"

#include <gtest/gtest.h>

namespace dnstime::chronos {
namespace {

std::vector<double> mixed_offsets(int honest, int malicious,
                                  double shift = -500.0) {
  std::vector<double> v;
  for (int i = 0; i < honest; ++i) {
    v.push_back(0.001 * (i % 5));  // honest servers: near-zero offsets
  }
  for (int i = 0; i < malicious; ++i) v.push_back(shift);
  return v;
}

TEST(ChronosSelection, AllHonestAccepted) {
  auto r = chronos_trim_select(mixed_offsets(15, 0));
  ASSERT_TRUE(r.accepted);
  EXPECT_NEAR(r.offset, 0.0, 0.01);
}

TEST(ChronosSelection, MinorityAttackerTrimmedAway) {
  // Up to a third malicious: the shifted samples are discarded.
  for (int bad = 1; bad <= 5; ++bad) {
    auto r = chronos_trim_select(mixed_offsets(15 - bad, bad));
    ASSERT_TRUE(r.accepted) << bad << " malicious";
    EXPECT_NEAR(r.offset, 0.0, 0.01) << bad << " malicious";
  }
}

TEST(ChronosSelection, MiddlingAttackerCausesDisagreement) {
  // Between 1/3 and 2/3: survivors mix honest and malicious -> spread
  // exceeds omega -> rejected (no silent time shift).
  for (int bad = 6; bad <= 9; ++bad) {
    auto r = chronos_trim_select(mixed_offsets(15 - bad, bad));
    EXPECT_FALSE(r.accepted) << bad << " malicious";
    EXPECT_TRUE(r.agreement_failed) << bad << " malicious";
  }
}

TEST(ChronosSelection, SupermajorityAttackerWinsButTripsDriftCheck) {
  // >2/3 malicious: survivors agree on the shifted value. The sampled
  // pass still rejects it via the drift bound...
  auto r = chronos_trim_select(mixed_offsets(3, 12));
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.drift_check_failed);
  // ...but the panic pass (whole pool, no drift bound) accepts it — the
  // §VI-C end state.
  auto p = chronos_panic_select(mixed_offsets(3, 12));
  ASSERT_TRUE(p.accepted);
  EXPECT_NEAR(p.offset, -500.0, 0.01);
}

TEST(ChronosSelection, PanicRefusesContestedPool) {
  auto p = chronos_panic_select(mixed_offsets(8, 7));
  EXPECT_FALSE(p.accepted);
}

TEST(ChronosSelection, ExactTwoThirdsBoundary) {
  // 96-server pool sweep: with the bottom/top thirds trimmed, an attacker
  // controlling >= 2/3 of the samples owns every survivor and wins the
  // panic pass; below that, survivors mix and the update is refused.
  for (int bad = 0; bad <= 96; ++bad) {
    auto p = chronos_panic_select(mixed_offsets(96 - bad, bad));
    bool attacker_won = p.accepted && p.offset < -400.0;
    if (bad >= 64) {  // 2/3 of 96
      EXPECT_TRUE(attacker_won) << bad;
    } else {
      EXPECT_FALSE(attacker_won) << bad;
    }
  }
}

TEST(ChronosSelection, EmptyAndTinyInputs) {
  EXPECT_FALSE(chronos_trim_select({}).accepted);
  EXPECT_FALSE(chronos_trim_select({0.0, 0.0}).accepted ==
               false &&
               false);  // 2 samples: trim d=0, survivors=2 -> accepted
  auto r = chronos_trim_select({0.0, 0.001});
  EXPECT_TRUE(r.accepted);
}

TEST(ChronosSelection, SmallDriftAccepted) {
  std::vector<double> offsets(15, 0.050);  // 50 ms everywhere
  auto r = chronos_trim_select(offsets);
  ASSERT_TRUE(r.accepted);
  EXPECT_NEAR(r.offset, 0.050, 1e-9);
}

}  // namespace
}  // namespace dnstime::chronos
