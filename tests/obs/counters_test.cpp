// Registry contracts: concurrent adds sum exactly, histograms keep
// count/sum/min/max/buckets whichever thread records, snapshots are exact
// and name-sorted, every registered tag is reported even at 0, and counts
// recorded by threads that have exited are not lost.
#include "obs/counters.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dnstime::obs {
namespace {

TEST(Registry, CounterSumsAcrossThreads) {
  Registry& reg = Registry::instance();
  reg.reset();
  const Registry::Id id = reg.counter_id("test.sum");
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, id] {
      for (u64 i = 0; i < kPerThread; ++i) reg.add(id, 1);
    });
  }
  for (auto& t : pool) t.join();
  reg.add(id, 5);
  EXPECT_EQ(reg.snapshot().counter("test.sum"), kThreads * kPerThread + 5);
}

TEST(Registry, MacrosResolveAndBump) {
  Registry::instance().reset();
  for (int i = 0; i < 3; ++i) DNSTIME_COUNT("test.macro");
  DNSTIME_COUNT_ADD("test.macro", 7);
  Snapshot snap = Registry::instance().snapshot();
#if DNSTIME_OBS
  EXPECT_EQ(snap.counter("test.macro"), 10u);
#else
  EXPECT_EQ(snap.counter("test.macro"), 0u);
#endif
}

TEST(Registry, CounterAbsentReadsZero) {
  EXPECT_EQ(Registry::instance().snapshot().counter("test.never-touched"),
            0u);
}

TEST(Registry, SameTagSameIdAcrossCalls) {
  Registry& reg = Registry::instance();
  EXPECT_EQ(reg.counter_id("test.interned"), reg.counter_id("test.interned"));
  EXPECT_NE(reg.counter_id("test.interned"), reg.counter_id("test.other"));
}

TEST(Registry, HistogramRecordsCountSumMinMaxBuckets) {
  Registry& reg = Registry::instance();
  reg.reset();
  const Registry::Id id = reg.histogram_id("test.hist");
  for (u64 v : {u64{0}, u64{1}, u64{5}, u64{5}, u64{1000}}) reg.record(id, v);
  Snapshot snap = reg.snapshot();
  const HistogramData* h = snap.histogram("test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum, 1011u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 1000u);
  // Log2 buckets: value 0 and 1 land in bucket 0, 5 in bucket 2 (bit
  // width 3 - 1), 1000 in bucket 9.
  EXPECT_EQ(h->buckets[0], 2u);
  EXPECT_EQ(h->buckets[2], 2u);
  EXPECT_EQ(h->buckets[9], 1u);
}

TEST(Registry, HistogramMinSurvivesThreadExit) {
  Registry& reg = Registry::instance();
  reg.reset();
  const Registry::Id id = reg.histogram_id("test.hist-retired");
  // The small sample is recorded on a thread that exits before the large
  // sample is recorded on this one: min and max must both survive, which
  // an additive combination of the two threads' samples would break.
  std::thread t([&reg, id] { reg.record(id, 3); });
  t.join();
  reg.record(id, 900);
  const Snapshot snap = reg.snapshot();
  const HistogramData* h = snap.histogram("test.hist-retired");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->min, 3u);
  EXPECT_EQ(h->max, 900u);
}

TEST(Registry, CountsFromExitedThreadsAreRetained) {
  Registry& reg = Registry::instance();
  reg.reset();
  const Registry::Id id = reg.counter_id("test.retired");
  {
    std::thread t([&reg, id] { reg.add(id, 41); });
    t.join();
  }
  EXPECT_EQ(reg.snapshot().counter("test.retired"), 41u);
}

TEST(Registry, ResetZeroesLiveAndRetired) {
  Registry& reg = Registry::instance();
  const Registry::Id id = reg.counter_id("test.reset");
  reg.add(id, 9);
  std::thread t([&reg, id] { reg.add(id, 9); });
  t.join();
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter("test.reset"), 0u);
}

TEST(Registry, ZeroAddTagsAreListedAndResetKeepsEveryTag) {
  // A site that only ever adds 0 still registers its tag, so the
  // --metrics key set does not depend on what a campaign happened to hit
  // (net.udp_checksum_failures is 0 in every campaign).
  Registry& reg = Registry::instance();
  reg.reset();
  reg.add(reg.counter_id("test.only-zero"), 0);
  const Registry::Id hit = reg.counter_id("test.hit");
  reg.add(hit, 4);
  reg.record(reg.histogram_id("test.reset-hist"), 12);
  const auto has_counter = [](const Snapshot& s, std::string_view name) {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return true;
    }
    return false;
  };
  const Snapshot before = reg.snapshot();
  EXPECT_TRUE(has_counter(before, "test.only-zero"));
  EXPECT_EQ(before.counter("test.only-zero"), 0u);
  EXPECT_EQ(before.counter("test.hit"), 4u);

  reg.reset();
  const Snapshot after = reg.snapshot();
  ASSERT_EQ(after.counters.size(), before.counters.size());
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  for (std::size_t i = 0; i < after.counters.size(); ++i) {
    EXPECT_EQ(after.counters[i].first, before.counters[i].first);
    EXPECT_EQ(after.counters[i].second, 0u) << after.counters[i].first;
  }
  const HistogramData* h = after.histogram("test.reset-hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0u);
  EXPECT_EQ(h->max, 0u);
  reg.add(hit, 1);
  EXPECT_EQ(reg.snapshot().counter("test.hit"), 1u);
}

TEST(Registry, SnapshotsDuringConcurrentAddsNeverDecrease) {
  Registry& reg = Registry::instance();
  reg.reset();
  const Registry::Id id = reg.counter_id("test.monotone");
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, id] {
      for (u64 i = 0; i < kPerThread; ++i) reg.add(id, 1);
    });
  }
  u64 last = 0;
  for (int i = 0; i < 200; ++i) {
    const u64 now = reg.snapshot().counter("test.monotone");
    EXPECT_GE(now, last);
    EXPECT_LE(now, kThreads * kPerThread);
    last = now;
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(reg.snapshot().counter("test.monotone"), kThreads * kPerThread);
}

TEST(Snapshot, JsonIsNameSortedAndStable) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.add(reg.counter_id("test.zz"), 2);
  reg.add(reg.counter_id("test.aa"), 1);
  reg.record(reg.histogram_id("test.h"), 4);
  const std::string a = reg.snapshot().to_json();
  const std::string b = reg.snapshot().to_json();
  EXPECT_EQ(a, b);
  // Sorted: test.aa before test.zz regardless of registration order.
  EXPECT_LT(a.find("\"test.aa\":1"), a.find("\"test.zz\":2"));
  EXPECT_NE(a.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(a.find("\"test.h\":{\"count\":1,\"sum\":4"), std::string::npos);
}

TEST(Snapshot, TableRendersEveryTag) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.add(reg.counter_id("test.table"), 12);
  reg.record(reg.histogram_id("test.table-hist"), 7);
  const std::string table = reg.snapshot().to_table();
  EXPECT_NE(table.find("test.table"), std::string::npos);
  EXPECT_NE(table.find("test.table-hist"), std::string::npos);
}

}  // namespace
}  // namespace dnstime::obs
