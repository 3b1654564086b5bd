#include <gtest/gtest.h>

#include <limits>

#include "common/bytes.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ntp/clock.h"

namespace dnstime {
namespace {

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u16(0x1234);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0102030405060708ull);
  w.write_string("hi");
  Bytes buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.read_bytes(2), (Bytes{'h', 'i'}));
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, TruncatedReadThrows) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  EXPECT_THROW((void)r.read_u32(), DecodeError);
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.write_u32(0);
  w.patch_u16(1, 0xBEEF);
  EXPECT_EQ(w.data()[1], 0xBE);
  EXPECT_EQ(w.data()[2], 0xEF);
  EXPECT_THROW(w.patch_u16(3, 1), DecodeError);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, UniformBoundsInclusive) {
  Rng rng{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    u64 v = rng.uniform(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    if (v == 3) saw_lo = true;
    if (v == 5) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng{9};
  auto idx = rng.sample_indices(100, 15);
  ASSERT_EQ(idx.size(), 15u);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(std::unique(idx.begin(), idx.end()), idx.end());
  EXPECT_LT(idx.back(), 100u);
  EXPECT_EQ(rng.sample_indices(3, 10).size(), 3u);  // k > n clamps
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({-500, -500, -500, -500, 0, 0}), -500.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Histogram, ClampsToEdges) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(100);
  h.add(5);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(EmpiricalCdf, FractionsAndQuantiles) {
  EmpiricalCdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(9.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, QuantileClampsOutOfRangeArguments) {
  // Nearest-rank contract: quantile(q) = sorted sample at floor(q*(n-1)),
  // with q clamped to [0, 1]. Out-of-range q used to index out of bounds.
  EmpiricalCdf cdf;
  for (double v : {10.0, 20.0, 30.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1e9), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(std::numeric_limits<double>::quiet_NaN()),
                   10.0);
  // Interior values use floor (nearest rank, lower): 0.49 of n=3 -> index 0.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.49), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
}

TEST(EmpiricalCdf, QuantileOnEmptyAndSingleton) {
  EmpiricalCdf empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EmpiricalCdf one;
  one.add(7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(2.0), 7.0);
}

TEST(SystemClock, TracksStepsAndSlews) {
  ntp::SystemClock clock(0.0);
  sim::Time t;
  clock.slew(0.05, t);
  clock.step(-500.0, t + sim::Duration::seconds(10));
  EXPECT_NEAR(clock.offset(), -499.95, 1e-9);
  auto shift = clock.first_shift_beyond(400.0);
  ASSERT_TRUE(shift.has_value());
  EXPECT_EQ(shift->to_seconds(), 10.0);
  EXPECT_FALSE(clock.first_shift_beyond(1000.0).has_value());
}

TEST(SystemClock, WallSecondsAdvanceWithSimTime) {
  ntp::SystemClock clock(2.5);
  sim::Time t = sim::Time::from_ns(sim::Duration::seconds(100).ns());
  EXPECT_DOUBLE_EQ(clock.wall_seconds(t),
                   ntp::kSimEpochNtpSeconds + 100.0 + 2.5);
}

}  // namespace
}  // namespace dnstime
