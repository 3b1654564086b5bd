// Property tests for the zero-copy packet path against the frozen
// pre-refactor copy path (bench/legacy_packet_path.h), plus the leak
// instrumentation contract (every PacketBuf is released by trial teardown)
// and the flood's block count.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench/legacy_packet_path.h"
#include "campaign/scenario_spec.h"
#include "campaign/trial.h"
#include "common/buffer.h"
#include "common/origin.h"
#include "common/rng.h"
#include "net/fragmentation.h"
#include "net/netstack.h"
#include "net/reassembly.h"
#include "net/udp.h"
#include "obs/provenance.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace dnstime::net {
namespace {

using sim::Duration;

Bytes random_payload(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<u8>(rng.uniform(0, 255));
  return b;
}

/// fragment() then reassemble in a shuffled arrival order, on both paths;
/// assert byte-equality with each other and with the original payload.
TEST(BufferPathProperty, FragmentReassembleRoundTripMatchesLegacyPath) {
  Rng rng{0xF00D};
  const u16 mtus[] = {68, 296, 576, 1500, 9000};
  // Sizes 0..64 KiB: edge cases plus random fill. An IPv4 datagram's total
  // length caps at 65535, so the largest payload is 65515.
  std::vector<std::size_t> sizes = {0,   1,    7,    8,    9,   47,  48,
                                    276, 277,  556,  1480, 1481, 4096,
                                    65515};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform(0, 16384)));
  }
  for (std::size_t size : sizes) {
    for (u16 mtu : mtus) {
      Bytes payload = random_payload(rng, size);

      Ipv4Packet pkt;
      pkt.src = Ipv4Addr{198, 51, 100, 53};
      pkt.dst = Ipv4Addr{10, 53, 0, 1};
      pkt.id = static_cast<u16>(rng.next_u16());
      pkt.payload = PacketBuf::copy_of(payload);

      bench_legacy::Ipv4Packet old_pkt;
      old_pkt.src = pkt.src;
      old_pkt.dst = pkt.dst;
      old_pkt.id = pkt.id;
      old_pkt.payload = payload;

      auto frags = fragment(pkt, mtu);
      auto old_frags = bench_legacy::fragment(old_pkt, mtu);
      ASSERT_EQ(frags.size(), old_frags.size()) << size << "@" << mtu;

      // Same shuffled arrival order on both sides.
      std::vector<std::size_t> order(frags.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      rng.shuffle(order);

      if (frags.size() == 1 && !frags[0].is_fragment()) {
        ASSERT_EQ(frags[0].payload, old_frags[0].payload);
        continue;
      }

      ReassemblyCache cache;
      bench_legacy::ReassemblyCache old_cache;
      std::optional<Ipv4Packet> full;
      std::optional<bench_legacy::Ipv4Packet> old_full;
      for (std::size_t k : order) {
        auto done = cache.insert(frags[k], sim::Time{});
        auto old_done = old_cache.insert(old_frags[k], sim::Time{});
        ASSERT_EQ(done.has_value(), old_done.has_value());
        if (done) full = std::move(done);
        if (old_done) old_full = std::move(old_done);
      }
      ASSERT_TRUE(full.has_value()) << size << "@" << mtu;
      ASSERT_TRUE(old_full.has_value());
      // Byte-equality: new path == old copy path == original payload.
      ASSERT_EQ(full->payload, old_full->payload) << size << "@" << mtu;
      ASSERT_EQ(full->payload, payload) << size << "@" << mtu;
      // Fragment payloads are aliasing slices; make sure reassembly did not
      // mutate the parent datagram through them.
      ASSERT_EQ(pkt.payload, payload);
    }
  }
}

/// Overlapping and duplicate crafted fragments resolve identically on both
/// paths (first arrival wins; ascending-offset copy order).
TEST(BufferPathProperty, CraftedOverlapsMatchLegacyPath) {
  Rng rng{0xBEEF};
  for (int iter = 0; iter < 200; ++iter) {
    std::size_t nfrags = 2 + rng.uniform(0, 3);
    std::vector<std::pair<u16, Bytes>> parts;  // offset-units, bytes
    std::size_t last_end_units = 0;
    for (std::size_t f = 0; f + 1 < nfrags; ++f) {
      // delta in {-1, 0, +1}: overlap, contiguous, or hole.
      std::size_t base = last_end_units + rng.uniform(0, 2);
      u16 off = static_cast<u16>(base == 0 ? 0 : base - 1);
      std::size_t len8 = 1 + rng.uniform(0, 3);
      parts.emplace_back(off, random_payload(rng, len8 * 8));
      last_end_units = std::max<std::size_t>(last_end_units, off + len8);
    }
    // The MF=0 fragment sometimes lands *inside* earlier coverage so a part
    // extends past the datagram end (the truncation path).
    std::size_t final_base = last_end_units + rng.uniform(0, 2);
    u16 final_off = static_cast<u16>(final_base == 0 ? 0 : final_base - 1);
    parts.emplace_back(final_off, random_payload(rng, rng.uniform(1, 24)));

    ReassemblyCache cache;
    bench_legacy::ReassemblyCache old_cache;
    std::optional<Ipv4Packet> full;
    std::optional<bench_legacy::Ipv4Packet> old_full;
    for (std::size_t f = 0; f < parts.size(); ++f) {
      Ipv4Packet frag;
      frag.src = Ipv4Addr{1, 2, 3, 4};
      frag.dst = Ipv4Addr{5, 6, 7, 8};
      frag.id = 99;
      frag.frag_offset_units = parts[f].first;
      frag.more_fragments = f + 1 < parts.size();
      frag.payload = PacketBuf::copy_of(parts[f].second);

      bench_legacy::Ipv4Packet old_frag;
      old_frag.src = frag.src;
      old_frag.dst = frag.dst;
      old_frag.id = frag.id;
      old_frag.frag_offset_units = frag.frag_offset_units;
      old_frag.more_fragments = frag.more_fragments;
      old_frag.payload = parts[f].second;

      auto done = cache.insert(frag, sim::Time{});
      auto old_done = old_cache.insert(old_frag, sim::Time{});
      ASSERT_EQ(done.has_value(), old_done.has_value()) << "iter " << iter;
      if (done) full = std::move(done);
      if (old_done) old_full = std::move(old_done);
    }
    if (full.has_value()) {
      ASSERT_TRUE(old_full.has_value());
      ASSERT_EQ(full->payload, old_full->payload) << "iter " << iter;
    } else {
      ASSERT_FALSE(old_full.has_value());
    }
  }
}

/// Leak instrumentation: run a whole "trial" (two stacks exchanging
/// fragmented datagrams over the simulated network, including planted
/// fragments that expire) and require every PacketBuf to have been
/// released at teardown.
TEST(BufferPool, PacketPathReturnsEveryBufferAtTrialTeardown) {
  const u64 before = BufferPool::aggregate_stats().outstanding;
  {
    sim::EventLoop loop;
    sim::Network net(loop, Rng{7});
    StackConfig cfg;
    NetStack a(net, Ipv4Addr{10, 0, 0, 1}, cfg, Rng{1});
    NetStack b(net, Ipv4Addr{10, 0, 0, 2}, cfg, Rng{2});

    u64 got = 0;
    b.bind_udp(53, [&](const UdpEndpoint&, u16, const PacketBuf& payload) {
      got += payload.size();
    });
    for (int i = 0; i < 50; ++i) {
      a.send_udp(b.addr(), 4444, 53, Bytes(2000, static_cast<u8>(i)));
      a.send_udp_fragmented(b.addr(), 4444, 53, Bytes(256, 0xAB), 96);
    }
    // Plant an incomplete fragment that must be freed by cache expiry.
    Ipv4Packet orphan;
    orphan.src = Ipv4Addr{6, 6, 6, 6};
    orphan.dst = b.addr();
    orphan.id = 0x4242;
    orphan.frag_offset_units = 8;
    orphan.more_fragments = true;
    orphan.payload = Bytes(64, 0xEE);
    a.send_raw(std::move(orphan));

    loop.run_for(sim::Duration::seconds(60));  // past the reassembly timeout
    ASSERT_GT(got, 0u);
    ASSERT_GT(b.fragments_rx(), 0u);
  }
  // Trial teardown: every packet buffer has been released.
  EXPECT_EQ(BufferPool::aggregate_stats().outstanding, before);
}

/// The spoofed NTP flood builds one forged datagram per target and sends
/// refcounted copies of it, so a Table II trial takes a few hundred blocks
/// while it sends tens of thousands of packets. Exact block counts pin that
/// sharing: a flood that copied its datagram per send would take a block
/// per packet. They also pin acquire's power-of-two capacities, without
/// which a growing ByteWriter takes more blocks.
TEST(BufferPool, FloodSharesOneBlockPerTargetAcrossItsSends) {
  const campaign::ScenarioRegistry registry =
      campaign::ScenarioRegistry::builtin();
  const struct {
    const char* scenario;
    u64 blocks;
  } cases[] = {
      {"table2/openntpd", 815},  // 147,863 packets sent
      {"table2/ntpd-p1", 349},   // 22,221 packets sent
  };
  for (const auto& c : cases) {
    const campaign::ScenarioSpec* spec = registry.find(c.scenario);
    ASSERT_NE(spec, nullptr) << c.scenario;
    obs::FlightRecorder flight;
    const BufferPool::Stats before = BufferPool::aggregate_stats();
    const campaign::TrialResult result = campaign::execute_trial(
        *spec, /*campaign_seed=*/7, /*trial=*/0, flight);
    const BufferPool::Stats after = BufferPool::aggregate_stats();
    ASSERT_TRUE(result.error.empty()) << c.scenario << ": " << result.error;
    EXPECT_EQ(after.fresh_allocs - before.fresh_allocs, c.blocks)
        << c.scenario;
    EXPECT_EQ(after.outstanding, before.outstanding) << c.scenario;
  }
}

/// Provenance: a stamp applied to the parent datagram survives
/// fragmentation (every fragment is an aliasing slice carrying it) and
/// reassembly in a shuffled arrival order, gaining only the reassembled
/// flag.
TEST(BufferPathProvenance, OriginSurvivesFragmentReassembleRoundTrip) {
  Rng rng{0xC0FFEE};
  obs::FlightRecorder flight;
  flight.set_meta("test/prov-roundtrip", 1, 0, 0x1234);
  obs::ScopedFlightRecorder install(&flight);

  const u16 mtus[] = {68, 296, 576};
  for (u16 mtu : mtus) {
    Ipv4Packet pkt;
    pkt.src = Ipv4Addr{198, 51, 100, 53};
    pkt.dst = Ipv4Addr{10, 53, 0, 1};
    pkt.id = static_cast<u16>(mtu);
    pkt.payload = PacketBuf::copy_of(random_payload(rng, 2000));
    const Origin stamped =
        flight.stamp(/*ts_ns=*/42, OriginModule::kNameserver);
    ASSERT_NE(stamped.seq, 0u);
    pkt.payload.set_origin(stamped);

    auto frags = fragment(pkt, mtu);
    ASSERT_GT(frags.size(), 1u) << mtu;
    for (const Ipv4Packet& f : frags) {
      EXPECT_EQ(f.payload.origin(), stamped) << mtu;
    }

    std::vector<std::size_t> order(frags.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    rng.shuffle(order);

    ReassemblyCache cache;
    std::optional<Ipv4Packet> full;
    for (std::size_t k : order) {
      if (auto done = cache.insert(frags[k], sim::Time{})) {
        full = std::move(done);
      }
    }
    ASSERT_TRUE(full.has_value()) << mtu;
    const Origin& merged = full->payload.origin();
    EXPECT_EQ(merged.seq, stamped.seq) << mtu;
    EXPECT_EQ(merged.module, OriginModule::kNameserver) << mtu;
    EXPECT_EQ(merged.ts_ns, stamped.ts_ns) << mtu;
    EXPECT_TRUE(merged.reassembled()) << mtu;
    EXPECT_FALSE(merged.spoofed()) << mtu;
  }
  // The recorder saw one kReasmComplete event per mtu and every stamp.
  EXPECT_EQ(flight.stamps(), 3u);
}

/// The paper's contamination semantics: when one part of a reassembled
/// datagram was spoofed, the merged stamp is the spoofed part's — the
/// poisoned payload is attributable to the attacker's injection even
/// though the first fragment was legitimate.
TEST(BufferPathProvenance, SpoofedFragmentDominatesMergedOrigin) {
  obs::FlightRecorder flight;
  flight.set_meta("test/prov-spoofed", 1, 0, 0x5678);
  obs::ScopedFlightRecorder install(&flight);

  const Origin legit = flight.stamp(10, OriginModule::kNameserver);
  const Origin spoofed =
      flight.stamp(20, OriginModule::kAttacker, Origin::kSpoofed);
  ASSERT_TRUE(spoofed.spoofed());

  auto make_frag = [](u16 offset_units, bool more, std::size_t len,
                      const Origin& o) {
    Ipv4Packet frag;
    frag.src = Ipv4Addr{192, 0, 2, 1};
    frag.dst = Ipv4Addr{10, 53, 0, 1};
    frag.id = 7;
    frag.frag_offset_units = offset_units;
    frag.more_fragments = more;
    frag.payload = PacketBuf::copy_of(Bytes(len, 0xAB));
    frag.payload.set_origin(o);
    return frag;
  };

  ReassemblyCache cache;
  ASSERT_FALSE(
      cache.insert(make_frag(0, true, 16, legit), sim::Time{}).has_value());
  auto full =
      cache.insert(make_frag(2, false, 16, spoofed), sim::Time{});
  ASSERT_TRUE(full.has_value());
  const Origin& merged = full->payload.origin();
  EXPECT_EQ(merged.seq, spoofed.seq);
  EXPECT_EQ(merged.module, OriginModule::kAttacker);
  EXPECT_TRUE(merged.spoofed());
  EXPECT_TRUE(merged.reassembled());
}

/// End-to-end through NetStack: with a recorder installed and the stack
/// tagged with a module, a fragmented send_udp arrives at the receiver's
/// handler still carrying the sender's stamp (plus the reassembled flag),
/// and the recorder noted the completed reassembly.
TEST(BufferPathProvenance, StampSurvivesNetstackDelivery) {
  obs::FlightRecorder flight;
  flight.set_meta("test/prov-netstack", 1, 0, 0x9abc);
  obs::ScopedFlightRecorder install(&flight);

  sim::EventLoop loop;
  sim::Network net(loop, Rng{7});
  StackConfig sender_cfg;
  sender_cfg.origin_module = OriginModule::kNameserver;
  NetStack a(net, Ipv4Addr{10, 0, 0, 1}, sender_cfg, Rng{1});
  NetStack b(net, Ipv4Addr{10, 0, 0, 2}, StackConfig{}, Rng{2});

  Origin seen;
  b.bind_udp(53, [&](const UdpEndpoint&, u16, const PacketBuf& payload) {
    seen = payload.origin();
  });
  a.send_udp(b.addr(), 4444, 53, Bytes(3000, 0xCD));  // > MTU: fragments
  loop.run_for(Duration::seconds(5));

  // Reassembly marks the datagram whether or not stamps are compiled in.
  EXPECT_TRUE(seen.reassembled());
  EXPECT_FALSE(seen.spoofed());
#if DNSTIME_OBS
  EXPECT_NE(seen.seq, 0u);
  EXPECT_EQ(seen.module, OriginModule::kNameserver);
  EXPECT_GT(flight.stamps(), 0u);
  // The completed reassembly was recorded; nothing was spoofed, so the
  // contamination chain stage stayed untouched.
  EXPECT_GT(flight.recorded(), 0u);
  EXPECT_EQ(flight.chain(obs::ChainStage::kReasmSpoofed).count, 0u);
#else
  EXPECT_EQ(seen.seq, 0u);
  EXPECT_EQ(flight.stamps(), 0u);
  EXPECT_EQ(flight.recorded(), 0u);
#endif
}

}  // namespace
}  // namespace dnstime::net
