#include "net/icmp.h"

#include <gtest/gtest.h>

#include "net/checksum.h"

namespace dnstime::net {
namespace {

TEST(IcmpCodec, FragNeededRoundTrip) {
  IcmpFragNeeded msg{.mtu = 296,
                     .orig_src = Ipv4Addr{10, 0, 0, 1},
                     .orig_dst = Ipv4Addr{10, 0, 0, 2},
                     .orig_protocol = kProtoUdp};
  EXPECT_EQ(decode_icmp_frag_needed(encode_icmp_frag_needed(msg)), msg);
}

TEST(IcmpCodec, ChecksumDetectsCorruption) {
  Bytes wire = encode_icmp_frag_needed(
      IcmpFragNeeded{.mtu = 68, .orig_src = Ipv4Addr{1, 1, 1, 1},
                     .orig_dst = Ipv4Addr{2, 2, 2, 2}});
  wire[6] ^= 0x01;
  EXPECT_THROW((void)decode_icmp_frag_needed(wire), DecodeError);
}

TEST(IcmpCodec, RejectsOtherTypes) {
  Bytes wire = encode_icmp_frag_needed(
      IcmpFragNeeded{.mtu = 68, .orig_src = Ipv4Addr{1, 1, 1, 1},
                     .orig_dst = Ipv4Addr{2, 2, 2, 2}});
  wire[0] = 8;  // echo request
  // Fix checksum so the type check (not the checksum) rejects it.
  wire[2] = 0;
  wire[3] = 0;
  u16 csum = internet_checksum(wire);
  wire[2] = static_cast<u8>(csum >> 8);
  wire[3] = static_cast<u8>(csum);
  EXPECT_THROW((void)decode_icmp_frag_needed(wire), DecodeError);
}

TEST(IcmpCodec, MakeFragNeededPacketIsWellFormed) {
  Ipv4Packet pkt = make_frag_needed_packet(
      Ipv4Addr{9, 9, 9, 9}, Ipv4Addr{5, 5, 5, 5}, Ipv4Addr{5, 5, 5, 5},
      Ipv4Addr{6, 6, 6, 6}, 548);
  EXPECT_EQ(pkt.protocol, kProtoIcmp);
  EXPECT_EQ(pkt.dst, (Ipv4Addr{5, 5, 5, 5}));
  IcmpFragNeeded msg = decode_icmp_frag_needed(pkt.payload);
  EXPECT_EQ(msg.mtu, 548);
  EXPECT_EQ(msg.orig_dst, (Ipv4Addr{6, 6, 6, 6}));
}

}  // namespace
}  // namespace dnstime::net
