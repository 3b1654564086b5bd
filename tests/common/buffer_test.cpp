#include "common/buffer.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"

namespace dnstime {
namespace {

Bytes pattern(std::size_t n, u8 start = 0) {
  Bytes b(n);
  std::iota(b.begin(), b.end(), start);
  return b;
}

TEST(PacketBuf, CopyAliasesAndMutationCopiesOnWrite) {
  PacketBuf a = PacketBuf::copy_of(pattern(32));
  PacketBuf b = a;  // alias
  EXPECT_FALSE(a.unique());
  EXPECT_EQ(static_cast<const PacketBuf&>(a).data(),
            static_cast<const PacketBuf&>(b).data());

  b[0] = 0xEE;  // must not be visible through `a`
  EXPECT_TRUE(b.unique());
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(b[0], 0xEE);
}

TEST(PacketBuf, SliceSharesBytesWithParent) {
  PacketBuf parent = PacketBuf::copy_of(pattern(64));
  PacketBuf mid = parent.slice(16, 24);
  EXPECT_EQ(mid.size(), 24u);
  EXPECT_EQ(static_cast<const PacketBuf&>(mid).data(),
            static_cast<const PacketBuf&>(parent).data() + 16);
  EXPECT_EQ(mid, pattern(24, 16));
  EXPECT_THROW((void)parent.slice(60, 8), std::out_of_range);
  // Dropping the parent keeps the slice's block alive.
  parent = PacketBuf{};
  EXPECT_EQ(mid, pattern(24, 16));
}

TEST(PacketBuf, RemovePrefixIsOffsetArithmetic) {
  PacketBuf buf = PacketBuf::copy_of(pattern(40));
  const u8* before = static_cast<const PacketBuf&>(buf).data();
  buf.remove_prefix(8);
  EXPECT_EQ(static_cast<const PacketBuf&>(buf).data(), before + 8);
  EXPECT_EQ(buf.size(), 32u);
  EXPECT_EQ(buf[0], 8);
  EXPECT_THROW(buf.remove_prefix(33), std::out_of_range);
}

TEST(PacketBuf, PrependUsesHeadroomInPlace) {
  PacketBuf buf = PacketBuf::copy_of(pattern(16), /*headroom=*/8);
  EXPECT_EQ(buf.headroom(), 8u);
  const u8* body = static_cast<const PacketBuf&>(buf).data();
  u8* hdr = buf.prepend(8);
  EXPECT_EQ(hdr, body - 8);  // in place, no copy
  for (int i = 0; i < 8; ++i) hdr[i] = 0xA0;
  EXPECT_EQ(buf.size(), 24u);
  EXPECT_EQ(buf[8], 0);
  EXPECT_EQ(buf.headroom(), 0u);
}

TEST(PacketBuf, PrependWithoutHeadroomReallocates) {
  PacketBuf buf = PacketBuf::copy_of(pattern(16), /*headroom=*/0);
  u8* hdr = buf.prepend(8);
  for (int i = 0; i < 8; ++i) hdr[i] = 0xB0;
  EXPECT_EQ(buf.size(), 24u);
  EXPECT_EQ(buf[7], 0xB0);
  EXPECT_EQ(buf[8], 0);
  EXPECT_EQ(buf[23], 15);
}

TEST(PacketBuf, PrependOnSharedBufferDoesNotDisturbAlias) {
  PacketBuf a = PacketBuf::copy_of(pattern(16), /*headroom=*/8);
  PacketBuf b = a;
  u8* hdr = b.prepend(4);
  for (int i = 0; i < 4; ++i) hdr[i] = 0xCC;
  EXPECT_EQ(a, pattern(16));  // untouched
  EXPECT_EQ(b.size(), 20u);
  EXPECT_EQ(b[4], 0);
}

TEST(PacketBuf, ResizeAndAssignAreVectorCompatible) {
  PacketBuf buf;
  buf.resize(10);
  EXPECT_EQ(buf, Bytes(10, 0));  // growth zero-fills
  buf.assign(5, 0x77);
  EXPECT_EQ(buf, Bytes(5, 0x77));
  buf.resize(2);
  EXPECT_EQ(buf, Bytes(2, 0x77));
  // Growth of a shared buffer must not disturb the alias.
  PacketBuf alias = buf;
  buf.resize(4);
  EXPECT_EQ(alias, Bytes(2, 0x77));
  EXPECT_EQ(buf[0], 0x77);
  EXPECT_EQ(buf[3], 0);
}

TEST(PacketBuf, ComparesWithBytesBothWays) {
  PacketBuf buf{1, 2, 3};
  Bytes same{1, 2, 3};
  Bytes different{1, 2, 4};
  EXPECT_TRUE(buf == same);
  EXPECT_TRUE(same == buf);
  EXPECT_FALSE(buf == different);
  EXPECT_EQ(buf.to_bytes(), same);
}

TEST(BufView, ViewsWithoutOwning) {
  Bytes storage = pattern(20);
  BufView v(storage);
  EXPECT_EQ(v.size(), 20u);
  EXPECT_EQ(v[3], 3);
  EXPECT_EQ(v.subview(4, 4).to_bytes(), pattern(4, 4));
  EXPECT_THROW((void)v.subview(18, 4), std::out_of_range);
  std::span<const u8> s = v;  // implicit span conversion for decoders
  EXPECT_EQ(s.size(), 20u);
  EXPECT_TRUE(v == BufView(storage));
}

TEST(ByteWriter, TakeBufPreservesHeadroomForPrepend) {
  ByteWriter w;
  w.write_u32(0xDEADBEEF);
  PacketBuf buf = std::move(w).take_buf();
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_GE(buf.headroom(), kPacketHeadroom);
  const u8* body = static_cast<const PacketBuf&>(buf).data();
  u8* hdr = buf.prepend(8);
  EXPECT_EQ(hdr, body - 8);  // zero-copy prepend into the writer's headroom
}

TEST(ByteWriter, GrowsAcrossSizeClasses) {
  ByteWriter w;
  Bytes expect;
  Rng rng{99};
  for (int i = 0; i < 5000; ++i) {
    u8 b = static_cast<u8>(rng.uniform(0, 255));
    w.write_u8(b);
    expect.push_back(b);
  }
  EXPECT_EQ(std::move(w).take(), expect);
}

TEST(ByteWriter, TakeAndTakeBufAgree) {
  auto build = [](ByteWriter& w) {
    w.write_u16(0xABCD);
    w.write_bytes(Bytes{1, 2, 3, 4, 5});
    w.patch_u16(0, 0x1234);
  };
  ByteWriter a;
  build(a);
  ByteWriter b;
  build(b);
  EXPECT_EQ(std::move(b).take_buf(), std::move(a).take());
}

TEST(BufferPool, LeakInstrumentationSeesUnreleasedBuffers) {
  auto outstanding = [] { return BufferPool::aggregate_stats().outstanding; };
  const u64 before = outstanding();
  PacketBuf held = PacketBuf::copy_of(pattern(64));
  EXPECT_EQ(outstanding(), before + 1);
  PacketBuf alias = held;  // same block: still one outstanding
  EXPECT_EQ(outstanding(), before + 1);
  alias = PacketBuf{};
  held = PacketBuf{};
  EXPECT_EQ(outstanding(), before);
}

}  // namespace
}  // namespace dnstime
