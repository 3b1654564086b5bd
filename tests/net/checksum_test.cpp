#include "net/checksum.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace dnstime::net {
namespace {

TEST(Checksum, EmptyBufferSumsToZero) {
  EXPECT_EQ(ones_complement_sum({}), 0);
  EXPECT_EQ(internet_checksum({}), 0xFFFF);
}

TEST(Checksum, Rfc1071WorkedExample) {
  // Classic example from RFC 1071 §3: {00 01, f2 03, f4 f5, f6 f7}.
  const u8 data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ones_complement_sum(data), 0xddf2);
  EXPECT_EQ(internet_checksum(data), static_cast<u16>(~0xddf2));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const u8 data[] = {0x12, 0x34, 0x56};
  // 0x1234 + 0x5600 = 0x6834
  EXPECT_EQ(ones_complement_sum(data), 0x6834);
}

TEST(Checksum, CarryWrapsAround) {
  const u8 data[] = {0xFF, 0xFF, 0x00, 0x02};
  // 0xFFFF + 0x0002 = 0x10001 -> fold -> 0x0002
  EXPECT_EQ(ones_complement_sum(data), 0x0002);
}

TEST(Checksum, AddAndSubAreInverse) {
  for (u32 a = 0; a < 0x10000; a += 0x111) {
    for (u32 b = 0; b < 0x10000; b += 0x373) {
      u16 s = ones_complement_add(static_cast<u16>(a), static_cast<u16>(b));
      u16 back = ones_complement_sub(s, static_cast<u16>(b));
      // In ones' complement, 0x0000 and 0xFFFF are both zero; compare
      // modulo that equivalence.
      u16 want = static_cast<u16>(a);
      bool equal = back == want ||
                   (back == 0 && want == 0xFFFF) ||
                   (back == 0xFFFF && want == 0);
      EXPECT_TRUE(equal) << std::hex << a << "+" << b << " sum=" << s
                         << " back=" << back;
    }
  }
}

TEST(Checksum, CompensationPreservesSum) {
  // The §III-3 core trick: modify bytes, compensate elsewhere, total ones'
  // complement sum unchanged.
  Bytes f2 = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  Bytes modified = f2;
  modified[0] = 0xAA;
  modified[1] = 0xBB;
  u16 orig = ones_complement_sum(f2);
  u16 now = ones_complement_sum(modified);
  u16 delta = ones_complement_sub(orig, now);
  // Fold the delta into the last 16-bit word.
  u16 last = (u16{modified[6]} << 8) | modified[7];
  u16 fixed = ones_complement_add(last, delta);
  modified[6] = static_cast<u8>(fixed >> 8);
  modified[7] = static_cast<u8>(fixed);
  u16 after = ones_complement_sum(modified);
  bool equal = after == orig || (after == 0 && orig == 0xFFFF) ||
               (after == 0xFFFF && orig == 0);
  EXPECT_TRUE(equal) << std::hex << orig << " vs " << after;
}

TEST(Checksum, AllOnesAndZeros) {
  EXPECT_EQ(ones_complement_sum(Bytes(37, 0)), 0);
  EXPECT_EQ(ones_complement_sum(Bytes(64, 0xFF)), 0xFFFF);
}

TEST(Checksum, LargestIpv4LengthKnownAnswers) {
  // 65,535 bytes is the most any caller sums; all-0xFF words are the
  // accumulator's worst case before the final fold.
  EXPECT_EQ(ones_complement_sum(Bytes(65535, 0xFF)), 0xFF00);
  Bytes ramp(65535);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<u8>(i & 0xFF);
  }
  EXPECT_EQ(ones_complement_sum(ramp), 0x3EC1);
}

TEST(Checksum, PseudoHeaderMatchesManualComputation) {
  Ipv4Addr src{192, 0, 2, 1};
  Ipv4Addr dst{198, 51, 100, 7};
  u16 sum = pseudo_header_sum(src, dst, 17, 20);
  u16 manual = 0;
  manual = ones_complement_add(manual, 0xC000);
  manual = ones_complement_add(manual, 0x0201);
  manual = ones_complement_add(manual, 0xC633);
  manual = ones_complement_add(manual, 0x6407);
  manual = ones_complement_add(manual, 17);
  manual = ones_complement_add(manual, 20);
  EXPECT_EQ(sum, manual);
}

}  // namespace
}  // namespace dnstime::net
