// FlightRecorder contracts: deterministic stamps (pure function of the
// trial seed), ring bounds with chain points surviving overwrite, the
// causal-chain reached/broke_at semantics, tainted-peer steering, and the
// byte-pinned attack-narrative JSON that makes a runner dump and a
// tools/trial_replay byte-identical.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/origin.h"

namespace dnstime::obs {
namespace {

FlightRecorder::DumpContext failed_result(std::string error = "") {
  FlightRecorder::DumpContext ctx;
  ctx.has_result = true;
  ctx.success = false;
  ctx.duration_s = 12.5;
  ctx.error = std::move(error);
  return ctx;
}

TEST(FlightRecorder, StampSequenceIsAPureFunctionOfTheTrialSeed) {
  FlightRecorder a, b, c;
  a.set_meta("s", 1, 0, 0xABCD);
  b.set_meta("s", 1, 0, 0xABCD);
  c.set_meta("s", 1, 0, 0xABCE);  // different trial seed
  std::vector<u32> seqs_a, seqs_b, seqs_c;
  for (int i = 0; i < 64; ++i) {
    seqs_a.push_back(a.stamp(i, OriginModule::kAttacker).seq);
    seqs_b.push_back(b.stamp(i, OriginModule::kAttacker).seq);
    seqs_c.push_back(c.stamp(i, OriginModule::kAttacker).seq);
  }
  EXPECT_EQ(seqs_a, seqs_b);
  EXPECT_NE(seqs_a, seqs_c);
  // 0 means "unstamped", so stamp() never hands it out.
  for (u32 s : seqs_a) EXPECT_NE(s, 0u);
  EXPECT_EQ(a.stamps(), 64u);
}

TEST(FlightRecorder, StampCarriesModuleFlagsAndSimTime) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  Origin o = fr.stamp(1234, OriginModule::kAttackerNs, Origin::kSpoofed);
  EXPECT_EQ(o.ts_ns, 1234);
  EXPECT_EQ(o.module, OriginModule::kAttackerNs);
  EXPECT_TRUE(o.spoofed());
  EXPECT_FALSE(o.reassembled());
}

TEST(FlightRecorder, RingBoundsEventsButChainPointsSurviveOverwrite) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  // The interesting event lands first...
  Origin spoofed = fr.stamp(100, OriginModule::kAttacker, Origin::kSpoofed);
  fr.cache_insert(100, spoofed, "pool.ntp.org");
  // ...then a long trial scrolls it out of the ring entirely.
  const std::size_t total = FlightRecorder::kRingCapacity + 500;
  for (std::size_t i = 0; i < total; ++i) {
    fr.phase(static_cast<i64>(200 + i), "poll");
  }
  EXPECT_EQ(fr.size(), FlightRecorder::kRingCapacity);
  EXPECT_EQ(fr.recorded(), total + 1);
  EXPECT_EQ(fr.overwritten(), 501u);

  // The ring's oldest surviving event is a phase marker, not the insert...
  std::vector<FlightRecorder::Event> events = fr.events_in_order();
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
  EXPECT_EQ(events.front().kind, ProvKind::kPhase);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);  // oldest-to-newest
  }
  // ...but the chain point still names the poisoning packet and key.
  const FlightRecorder::ChainPoint& cp =
      fr.chain(ChainStage::kCachePoisoned);
  EXPECT_EQ(cp.count, 1u);
  EXPECT_EQ(cp.first_seq, 1u);
  EXPECT_EQ(cp.first_ref_seq, spoofed.seq);
  EXPECT_STREQ(cp.detail, "pool.ntp.org");
  const std::string json = fr.to_json(failed_result());
  EXPECT_NE(json.find("\"stage\":\"cache-poisoned\",\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"overwritten\":501"), std::string::npos);
}

TEST(FlightRecorder, ChainReachedIsTheLongestContiguousPrefix) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  // Nothing recorded: the chain never started.
  EXPECT_EQ(fr.chain_reached(false), nullptr);
  EXPECT_STREQ(fr.chain_broke_at(false), "pmtu-reduced");

  fr.pmtu_reduced(10, OriginModule::kVictim, 296, 0x0A000001);
  EXPECT_STREQ(fr.chain_reached(false), "pmtu-reduced");
  EXPECT_STREQ(fr.chain_broke_at(false), "spoofed-fragments-injected");

  Origin spoofed = fr.stamp(20, OriginModule::kAttacker, Origin::kSpoofed);
  fr.spoofed_inject(20, spoofed, 0x4242, 8);
  Origin merged = spoofed;
  merged.flags |= Origin::kReassembled;
  fr.reassembled(30, merged, 1172, 5);
  fr.cache_insert(40, merged, "pool.ntp.org");
  EXPECT_STREQ(fr.chain_reached(false), "cache-poisoned");
  EXPECT_STREQ(fr.chain_broke_at(false), "poisoned-answer-served");

  // A gap does not extend the prefix: steering a peer without ever having
  // served the poisoned answer still reports the break at the gap.
  fr.add_tainted(0x0A000002);
  fr.peer_adopted(50, OriginModule::kVictim, 0x0A000002);
  EXPECT_STREQ(fr.chain_reached(false), "cache-poisoned");
  EXPECT_STREQ(fr.chain_broke_at(false), "poisoned-answer-served");

  fr.poisoned_served(60, merged, "pool.ntp.org");
  EXPECT_STREQ(fr.chain_reached(false), "ntp-peer-steered");
  EXPECT_STREQ(fr.chain_broke_at(false), "clock-shifted");
  // The final stage is decided by the trial outcome at dump time.
  EXPECT_STREQ(fr.chain_reached(true), "clock-shifted");
  EXPECT_EQ(fr.chain_broke_at(true), nullptr);
}

TEST(FlightRecorder, LegitimateEventsDoNotAdvanceTheAttackChain) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  Origin legit = fr.stamp(10, OriginModule::kNameserver);
  Origin merged = legit;
  merged.flags |= Origin::kReassembled;
  fr.reassembled(20, merged, 900, 3);
  fr.cache_insert(30, merged, "pool.ntp.org");
  fr.peer_adopted(40, OriginModule::kVictim, 0x0A000002);  // not tainted
  EXPECT_EQ(fr.chain_reached(false), nullptr);
  EXPECT_EQ(fr.chain(ChainStage::kReasmSpoofed).count, 0u);
  EXPECT_EQ(fr.chain(ChainStage::kCachePoisoned).count, 0u);
  EXPECT_EQ(fr.chain(ChainStage::kPeerSteered).count, 0u);
  // The context events were still recorded for the narrative timeline.
  EXPECT_EQ(fr.size(), 3u);
}

TEST(FlightRecorder, TaintedPeerAdoptionCountsAsSteering) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  fr.add_tainted(0xC6336401);
  EXPECT_TRUE(fr.is_tainted(0xC6336401));
  EXPECT_FALSE(fr.is_tainted(0xC6336402));
  fr.peer_adopted(10, OriginModule::kVictim, 0xC6336401);
  fr.peer_selected(20, OriginModule::kVictim, 0xC6336401);
  EXPECT_EQ(fr.chain(ChainStage::kPeerSteered).count, 2u);
  // The detail labels the simulated address dotted-quad.
  EXPECT_STREQ(fr.chain(ChainStage::kPeerSteered).detail, "198.51.100.1");
}

TEST(FlightRecorder, NarrativeJsonIsBytePinned) {
  FlightRecorder fr;
  fr.set_meta("table2/\"q\"", 41, 3, 99);
  fr.phase(0, "poison");
  FlightRecorder::DumpContext ctx;
  ctx.has_result = true;
  ctx.success = true;
  ctx.duration_s = 1.5;
  ctx.clock_shift_s = -500.0;
  const std::string json = fr.to_json(ctx);
  EXPECT_EQ(
      json,
      "{\"narrative\":{\"scenario\":\"table2/\\\"q\\\"\","
      "\"campaign_seed\":41,\"trial\":3,\"trial_seed\":99,"
      "\"result\":{\"success\":true,\"duration_s\":1.5,"
      "\"clock_shift_s\":-500,\"error\":\"\"},"
      "\"chain\":{\"reached\":null,\"broke_at\":\"pmtu-reduced\","
      "\"stages\":["
      "{\"stage\":\"pmtu-reduced\",\"count\":0},"
      "{\"stage\":\"spoofed-fragments-injected\",\"count\":0},"
      "{\"stage\":\"reassembled-with-spoofed\",\"count\":0},"
      "{\"stage\":\"cache-poisoned\",\"count\":0},"
      "{\"stage\":\"poisoned-answer-served\",\"count\":0},"
      "{\"stage\":\"ntp-peer-steered\",\"count\":0},"
      "{\"stage\":\"clock-shifted\",\"count\":1}]},"
      "\"ring\":{\"capacity\":4096,\"recorded\":1,\"held\":1,"
      "\"overwritten\":0,\"stamps\":0},"
      "\"events\":[{\"n\":1,\"ts\":0.000,\"kind\":\"phase\","
      "\"module\":\"unknown\",\"detail\":\"poison\"}]}}");
  // No trailing newline: the runner's dump file and the CLI replay
  // compare with cmp(1).
  EXPECT_NE(json.back(), '\n');
  // A chain reached only through ctx.success must not claim the shift
  // when the trial failed.
  EXPECT_NE(fr.to_json(failed_result()).find(
                "{\"stage\":\"clock-shifted\",\"count\":0}"),
            std::string::npos);
  // The error string is escaped as the campaign report escapes it: a
  // newline as \n, and an embedded NUL does not cut the string short.
  EXPECT_NE(fr.to_json(failed_result(std::string("wedged\n\0tail", 12)))
                .find("\"error\":\"wedged\\n\\u0000tail\""),
            std::string::npos);
}

TEST(FlightRecorder, ErrorEventKeepsTheLastSimTimestamp) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  fr.phase(5000, "attack");
  fr.error("resolver wedged");
  std::vector<FlightRecorder::Event> events = fr.events_in_order();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, ProvKind::kError);
  EXPECT_EQ(events[1].ts_ns, 5000);
  EXPECT_STREQ(events[1].detail, "resolver wedged");
}

TEST(FlightRecorder, DetailLabelsTruncateInsteadOfAllocating) {
  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  fr.phase(0, "a-phase-name-much-longer-than-the-detail-slot");
  std::vector<FlightRecorder::Event> events = fr.events_in_order();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail),
            std::string("a-phase-name-much-longer-than-the-detail-slot")
                .substr(0, FlightRecorder::kDetailCapacity - 1));
}

TEST(ScopedFlightRecorder, InstallsAndRestores) {
  EXPECT_EQ(current_flight(), nullptr);
  FlightRecorder outer;
  {
    ScopedFlightRecorder a(&outer);
    EXPECT_EQ(current_flight(), &outer);
    FlightRecorder inner;
    {
      ScopedFlightRecorder b(&inner);
      EXPECT_EQ(current_flight(), &inner);
    }
    EXPECT_EQ(current_flight(), &outer);
  }
  EXPECT_EQ(current_flight(), nullptr);
}

TEST(ScopedFlightRecorder, MacrosAreInertWithoutARecorder) {
  PacketBuf buf = PacketBuf::copy_of(Bytes(8, 0x11));
  DNSTIME_PROV_STAMP(buf, 0, OriginModule::kAttacker, 0);
  DNSTIME_PROV_EVENT(phase(0, "nobody-listening"));
  EXPECT_EQ(buf.origin().seq, 0u);  // still unstamped

  FlightRecorder fr;
  fr.set_meta("s", 1, 0, 7);
  {
    ScopedFlightRecorder install(&fr);
    DNSTIME_PROV_STAMP(buf, 9, OriginModule::kAttacker, Origin::kSpoofed);
    DNSTIME_PROV_EVENT(phase(9, "recording"));
  }
#if DNSTIME_OBS
  EXPECT_NE(buf.origin().seq, 0u);
  EXPECT_TRUE(buf.origin().spoofed());
  EXPECT_EQ(fr.size(), 1u);
#else
  EXPECT_EQ(buf.origin().seq, 0u);
  EXPECT_EQ(fr.size(), 0u);
#endif
}

}  // namespace
}  // namespace dnstime::obs
