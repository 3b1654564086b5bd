#include "net/reassembly.h"

#include <gtest/gtest.h>

#include <numeric>

#include "net/fragmentation.h"

namespace dnstime::net {
namespace {

using sim::Duration;
using sim::Time;

Ipv4Packet packet_of_size(std::size_t n, u16 id = 1) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Addr{10, 0, 0, 1};
  pkt.dst = Ipv4Addr{10, 0, 0, 2};
  pkt.id = id;
  Bytes bytes(n);
  std::iota(bytes.begin(), bytes.end(), 0);
  pkt.payload = bytes;
  return pkt;
}

TEST(Reassembly, InOrderCompletes) {
  ReassemblyCache cache;
  Ipv4Packet pkt = packet_of_size(600);
  auto frags = fragment(pkt, 296);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_FALSE(cache.insert(frags[0], Time{}));
  EXPECT_FALSE(cache.insert(frags[1], Time{}));
  auto full = cache.insert(frags[2], Time{});
  ASSERT_TRUE(full);
  EXPECT_EQ(full->payload, pkt.payload);
  EXPECT_EQ(cache.pending_datagrams(), 0u);
}

TEST(Reassembly, OutOfOrderCompletes) {
  ReassemblyCache cache;
  Ipv4Packet pkt = packet_of_size(600);
  auto frags = fragment(pkt, 296);
  EXPECT_FALSE(cache.insert(frags[2], Time{}));
  EXPECT_FALSE(cache.insert(frags[0], Time{}));
  auto full = cache.insert(frags[1], Time{});
  ASSERT_TRUE(full);
  EXPECT_EQ(full->payload, pkt.payload);
}

TEST(Reassembly, FirstArrivalWinsOnDuplicateOffset) {
  // The attack's core property: a planted spoofed fragment takes
  // precedence over the genuine fragment that arrives later.
  ReassemblyCache cache;
  Ipv4Packet pkt = packet_of_size(400);
  auto frags = fragment(pkt, 296);
  ASSERT_EQ(frags.size(), 2u);

  Ipv4Packet spoofed = frags[1];
  std::fill(spoofed.payload.begin(), spoofed.payload.end(), 0xEE);

  EXPECT_FALSE(cache.insert(spoofed, Time{}));      // planted first
  auto full = cache.insert(frags[0], Time{});       // genuine first frag
  ASSERT_TRUE(full);
  // Tail of the reassembled payload is the spoofed content.
  for (std::size_t i = frags[0].payload.size(); i < full->payload.size();
       ++i) {
    EXPECT_EQ(full->payload[i], 0xEE);
  }
  // The genuine second fragment now starts a fresh (never-completing)
  // entry.
  EXPECT_FALSE(cache.insert(frags[1], Time{}));
  EXPECT_EQ(cache.pending_datagrams(), 1u);
}

TEST(Reassembly, DifferentIdsDoNotMix) {
  ReassemblyCache cache;
  auto frags_a = fragment(packet_of_size(400, 1), 296);
  auto frags_b = fragment(packet_of_size(400, 2), 296);
  EXPECT_FALSE(cache.insert(frags_a[0], Time{}));
  EXPECT_FALSE(cache.insert(frags_b[1], Time{}));
  EXPECT_EQ(cache.pending_datagrams(), 2u);
}

TEST(Reassembly, TimeoutExpiresEntries) {
  ReassemblyCache cache;  // Linux's 30 s timeout
  auto frags = fragment(packet_of_size(400), 296);
  EXPECT_FALSE(cache.insert(frags[1], Time{}));
  cache.expire(Time{} + Duration::seconds(29));
  EXPECT_EQ(cache.pending_datagrams(), 1u);
  cache.expire(Time{} + Duration::seconds(30));
  EXPECT_EQ(cache.pending_datagrams(), 0u);
  EXPECT_EQ(cache.expired(), 1u);
  // After expiry the remaining genuine fragment cannot complete.
  EXPECT_FALSE(cache.insert(frags[0], Time{} + Duration::seconds(31)));
}

TEST(Reassembly, PerPairCapBoundsSprayWidth) {
  // Linux caps 64 concurrently cached datagrams per endpoint pair: an
  // attacker spraying fragments with distinct IPIDs hits this wall.
  ReassemblyCache cache(
      ReassemblyPolicy{.max_datagrams_per_pair = 64});
  auto base = fragment(packet_of_size(400), 296);
  for (u16 id = 0; id < 80; ++id) {
    Ipv4Packet f = base[1];
    f.id = id;
    (void)cache.insert(f, Time{});
  }
  EXPECT_EQ(cache.pending_datagrams(), 64u);
  EXPECT_EQ(cache.evicted_overflow(), 16u);
}

TEST(Reassembly, WindowsPolicyAllows100) {
  ReassemblyCache cache(
      ReassemblyPolicy{.max_datagrams_per_pair = 100});
  auto base = fragment(packet_of_size(400), 296);
  for (u16 id = 0; id < 120; ++id) {
    Ipv4Packet f = base[1];
    f.id = id;
    (void)cache.insert(f, Time{});
  }
  EXPECT_EQ(cache.pending_datagrams(), 100u);
}

TEST(Reassembly, PairCapSlotsFreeOnExpiryAndCompletion) {
  // The per-pair cap is enforced with an incrementally-maintained counter
  // (the old full-cache scan made a fragment spray O(n²)); this pins the
  // counter to the cache contents across every path that removes entries.
  ReassemblyCache cache(ReassemblyPolicy{.max_datagrams_per_pair = 4});
  auto base = fragment(packet_of_size(400), 296);

  // Fill the pair to its cap with incomplete datagrams.
  for (u16 id = 0; id < 6; ++id) {
    Ipv4Packet f = base[1];
    f.id = id;
    EXPECT_FALSE(cache.insert(f, Time{}));
  }
  EXPECT_EQ(cache.pending_datagrams(), 4u);
  EXPECT_EQ(cache.evicted_overflow(), 2u);

  // Expiry must release the slots, not just the entries.
  cache.expire(Time{} + Duration::seconds(30));
  EXPECT_EQ(cache.pending_datagrams(), 0u);
  EXPECT_EQ(cache.expired(), 4u);
  for (u16 id = 10; id < 14; ++id) {
    Ipv4Packet f = base[1];
    f.id = id;
    EXPECT_FALSE(cache.insert(f, Time{} + Duration::seconds(31)));
  }
  EXPECT_EQ(cache.pending_datagrams(), 4u);
  EXPECT_EQ(cache.evicted_overflow(), 2u);  // cap free again: no new evictions

  // Completion must release a slot too: finish one datagram, and the freed
  // slot accepts a fresh incomplete datagram without an overflow eviction.
  Time later = Time{} + Duration::seconds(62);
  cache.expire(later);  // clean slate
  auto frags = fragment(packet_of_size(400, 99), 296);
  EXPECT_FALSE(cache.insert(frags[0], later));
  ASSERT_TRUE(cache.insert(frags[1], later));
  EXPECT_EQ(cache.pending_datagrams(), 0u);
  Ipv4Packet fresh = base[1];
  fresh.id = 77;
  EXPECT_FALSE(cache.insert(fresh, later));
  EXPECT_EQ(cache.pending_datagrams(), 1u);
  EXPECT_EQ(cache.evicted_overflow(), 2u);
}

TEST(Reassembly, PairCountsAreIndependentPerPair) {
  ReassemblyCache cache(ReassemblyPolicy{.max_datagrams_per_pair = 2});
  auto base = fragment(packet_of_size(400), 296);
  for (u16 id = 0; id < 4; ++id) {
    Ipv4Packet f = base[1];
    f.id = id;
    (void)cache.insert(f, Time{});
  }
  EXPECT_EQ(cache.pending_datagrams(), 2u);  // pair A at cap
  // A different source address is a different pair with its own budget.
  for (u16 id = 0; id < 2; ++id) {
    Ipv4Packet f = base[1];
    f.src = Ipv4Addr{10, 0, 0, 9};
    f.id = id;
    EXPECT_FALSE(cache.insert(f, Time{}));
  }
  EXPECT_EQ(cache.pending_datagrams(), 4u);
  EXPECT_EQ(cache.evicted_overflow(), 2u);
}

TEST(Reassembly, HoleBlocksCompletion) {
  ReassemblyCache cache;
  auto frags = fragment(packet_of_size(900), 296);
  ASSERT_EQ(frags.size(), 4u);
  EXPECT_FALSE(cache.insert(frags[0], Time{}));
  EXPECT_FALSE(cache.insert(frags[3], Time{}));  // hole at frags[1..2]
  EXPECT_FALSE(cache.insert(frags[2], Time{}));  // hole at frags[1]
  EXPECT_EQ(cache.pending_datagrams(), 1u);
}

}  // namespace
}  // namespace dnstime::net
