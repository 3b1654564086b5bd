#include "attack/checksum_fixer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/checksum.h"
#include "net/udp.h"

namespace dnstime::attack {
namespace {

TEST(ChecksumFixer, FixedFragmentMatchesOriginalSum) {
  Bytes orig(64);
  Rng rng{7};
  for (auto& b : orig) b = static_cast<u8>(rng.uniform(0, 255));

  Bytes mutated = orig;
  // Corrupt a handful of bytes (the "malicious records").
  mutated[10] = 0x66;
  mutated[11] = 0x66;
  mutated[30] = 0x01;
  ASSERT_TRUE(fix_fragment_sum(orig, mutated, 40));
  EXPECT_TRUE(sums_equal(orig, mutated));
}

TEST(ChecksumFixer, OddOffsetRejected) {
  Bytes orig(16, 1);
  Bytes mutated = orig;
  mutated[0] = 9;
  EXPECT_FALSE(fix_fragment_sum(orig, mutated, 3));
}

TEST(ChecksumFixer, OffsetBeyondBufferRejected) {
  Bytes orig(16, 1);
  Bytes mutated = orig;
  EXPECT_FALSE(fix_fragment_sum(orig, mutated, 16));
}

TEST(ChecksumFixer, WorksForAllDeltas) {
  // Property sweep: any single 16-bit mutation is repairable.
  for (u32 v = 0; v < 0x10000; v += 257) {
    Bytes orig = {0x12, 0x34, 0x56, 0x78, 0x00, 0x00};
    Bytes mutated = orig;
    mutated[0] = static_cast<u8>(v >> 8);
    mutated[1] = static_cast<u8>(v);
    ASSERT_TRUE(fix_fragment_sum(orig, mutated, 4));
    EXPECT_TRUE(sums_equal(orig, mutated)) << "v=" << v;
  }
}

TEST(ChecksumFixer, EndToEndUdpChecksumSurvivesSplitAndSplice) {
  // Simulate the real situation: a UDP datagram is split; the second part
  // is mutated and fixed; the reassembled datagram must still pass
  // decode_udp_buf's checksum verification.
  Ipv4Addr src{198, 51, 100, 53}, dst{10, 53, 0, 1};
  Bytes payload(300);
  Rng rng{11};
  for (auto& b : payload) b = static_cast<u8>(rng.uniform(0, 255));
  Bytes wire = net::encode_udp_buf(payload, 53, 4242, src, dst).to_bytes();

  const std::size_t split = 160;  // 8-aligned
  Bytes f2(wire.begin() + split, wire.end());
  Bytes f2_evil = f2;
  f2_evil[20] = 0x66;
  f2_evil[21] = 0x66;
  f2_evil[22] = 0x66;
  f2_evil[23] = 0x66;
  ASSERT_TRUE(fix_fragment_sum(f2, f2_evil, 40));

  Bytes spliced(wire.begin(), wire.begin() + split);
  spliced.insert(spliced.end(), f2_evil.begin(), f2_evil.end());
  // Must decode without checksum error and carry the mutated bytes.
  net::UdpDatagram out = net::decode_udp_buf(spliced, src, dst);
  EXPECT_EQ(out.payload[split - net::kUdpHeaderSize + 20], 0x66);
}

}  // namespace
}  // namespace dnstime::attack
