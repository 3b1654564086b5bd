#include "net/fragmentation.h"

#include <gtest/gtest.h>

#include <numeric>

namespace dnstime::net {
namespace {

Ipv4Packet packet_of_size(std::size_t payload) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Addr{10, 0, 0, 1};
  pkt.dst = Ipv4Addr{10, 0, 0, 2};
  pkt.id = 77;
  Bytes bytes(payload);
  std::iota(bytes.begin(), bytes.end(), 0);
  pkt.payload = bytes;
  return pkt;
}

TEST(Fragmentation, SmallPacketPassesThrough) {
  auto frags = fragment(packet_of_size(100), 1500);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_FALSE(frags[0].is_fragment());
}

TEST(Fragmentation, SplitsAtEightByteBoundary) {
  auto frags = fragment(packet_of_size(1000), 296);
  ASSERT_GE(frags.size(), 2u);
  for (std::size_t i = 0; i + 1 < frags.size(); ++i) {
    EXPECT_EQ(frags[i].payload.size() % 8, 0u);
    EXPECT_TRUE(frags[i].more_fragments);
    EXPECT_LE(frags[i].total_length(), 296u);
  }
  EXPECT_FALSE(frags.back().more_fragments);
}

TEST(Fragmentation, OffsetsAreContiguous) {
  auto frags = fragment(packet_of_size(700), 296);
  std::size_t expect_offset = 0;
  for (const auto& f : frags) {
    EXPECT_EQ(f.frag_offset_bytes(), expect_offset);
    expect_offset += f.payload.size();
  }
  EXPECT_EQ(expect_offset, 700u);
}

TEST(Fragmentation, PreservesIdAndEndpoints) {
  auto frags = fragment(packet_of_size(600), 296);
  for (const auto& f : frags) {
    EXPECT_EQ(f.id, 77);
    EXPECT_EQ(f.src, (Ipv4Addr{10, 0, 0, 1}));
    EXPECT_EQ(f.dst, (Ipv4Addr{10, 0, 0, 2}));
  }
}

TEST(Fragmentation, ReassembledPayloadMatches) {
  Ipv4Packet pkt = packet_of_size(900);
  auto frags = fragment(pkt, 200);
  Bytes joined;
  for (const auto& f : frags) {
    joined.insert(joined.end(), f.payload.begin(), f.payload.end());
  }
  EXPECT_EQ(joined, pkt.payload);
}

TEST(Fragmentation, MinimumMtuWorks) {
  // MTU 68: the paper's predecessor attack needed servers to go this low.
  auto frags = fragment(packet_of_size(500), kMinimumMtu);
  EXPECT_GE(frags.size(), 10u);
  for (const auto& f : frags) EXPECT_LE(f.total_length(), 68u);
}

TEST(Fragmentation, DfPacketTooBigThrows) {
  Ipv4Packet pkt = packet_of_size(2000);
  pkt.dont_fragment = true;
  EXPECT_THROW((void)fragment(pkt, 1500), DecodeError);
}

TEST(Fragmentation, RefusesToRefragment) {
  Ipv4Packet pkt = packet_of_size(100);
  pkt.more_fragments = true;
  EXPECT_THROW((void)fragment(pkt, 68), DecodeError);
}

TEST(Fragmentation, TinyMtuThrows) {
  EXPECT_THROW((void)fragment(packet_of_size(100), 20), DecodeError);
}

}  // namespace
}  // namespace dnstime::net
