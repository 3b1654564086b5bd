#include "net/udp.h"

#include <gtest/gtest.h>

namespace dnstime::net {
namespace {

const Ipv4Addr kSrc{192, 0, 2, 10};
const Ipv4Addr kDst{203, 0, 113, 5};

TEST(UdpCodec, RoundTrip) {
  const PacketBuf payload{9, 8, 7};
  const PacketBuf wire = encode_udp_buf(payload, 5353, 53, kSrc, kDst);
  ASSERT_EQ(wire.size(), kUdpHeaderSize + 3);
  UdpDatagram back = decode_udp_buf(wire, kSrc, kDst);
  EXPECT_EQ(back.src_port, 5353);
  EXPECT_EQ(back.dst_port, 53);
  EXPECT_EQ(back.payload, payload);
}

TEST(UdpCodec, ChecksumDetectsPayloadCorruption) {
  Bytes wire =
      encode_udp_buf({0x10, 0x20, 0x30, 0x40}, 1, 2, kSrc, kDst).to_bytes();
  wire[kUdpHeaderSize + 1] ^= 0x55;
  EXPECT_THROW((void)decode_udp_buf(wire, kSrc, kDst), DecodeError);
}

TEST(UdpCodec, ChecksumBindsAddresses) {
  // Same bytes, different pseudo header => checksum failure. This is why
  // the attacker must spoof the genuine nameserver's source address.
  const PacketBuf wire = encode_udp_buf({1, 2, 3}, 1, 2, kSrc, kDst);
  EXPECT_THROW((void)decode_udp_buf(wire, Ipv4Addr{1, 2, 3, 4}, kDst),
               DecodeError);
}

TEST(UdpCodec, ZeroChecksumSkipsVerification) {
  Bytes wire = encode_udp_buf({5}, 7, 9, kSrc, kDst).to_bytes();
  wire[6] = 0;
  wire[7] = 0;  // checksum = 0 means "not computed"
  UdpDatagram back = decode_udp_buf(wire, kSrc, kDst);
  EXPECT_EQ(back.payload, Bytes{5});
}

TEST(UdpCodec, EmptyPayload) {
  UdpDatagram back =
      decode_udp_buf(encode_udp_buf({}, 1, 1, kSrc, kDst), kSrc, kDst);
  EXPECT_TRUE(back.payload.empty());
}

TEST(UdpCodec, BadLengthRejected) {
  Bytes wire = encode_udp_buf({1, 2, 3, 4}, 1, 1, kSrc, kDst).to_bytes();
  wire[4] = 0;
  wire[5] = 3;  // length < header size
  EXPECT_THROW((void)decode_udp_buf(wire, kSrc, kDst), DecodeError);
}

}  // namespace
}  // namespace dnstime::net
