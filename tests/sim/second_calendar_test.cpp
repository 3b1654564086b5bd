// SecondCalendar's contract: for every push stream ClientPopulation can
// produce — grid pushes 1..max_poll_s whole seconds ahead, "now" pushes at
// arbitrary instants, peeks anywhere in between — it pops exactly what a
// (time, seq) priority queue pops. Pushes outside that contract throw
// instead of silently reordering the fleet.
#include "sim/second_calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace dnstime::sim {
namespace {

Time sec(i64 s) { return Time::from_ns(s * 1'000'000'000); }

/// A SecondCalendar and a std::priority_queue fed the same pushes; every
/// peek and pop must agree.
class CheckedCalendar {
 public:
  explicit CheckedCalendar(u32 horizon_s) : cal_(horizon_s) {}

  void push(Time at) {
    cal_.push(at, next_payload_);
    heap_.push({at, seq_++, next_payload_++});
  }

  void check_peek() {
    const std::optional<SecondCalendar::Entry> top = cal_.peek();
    ASSERT_EQ(top.has_value(), !heap_.empty());
    if (!top) return;
    EXPECT_EQ(top->at, heap_.top().at);
    EXPECT_EQ(top->payload, heap_.top().payload);
  }

  /// Pop every entry due at or before `now`, pop for pop.
  void pop_until(Time now) {
    while (!heap_.empty() && heap_.top().at <= now) {
      SecondCalendar::Entry e;
      ASSERT_TRUE(cal_.pop(e));
      ASSERT_EQ(e.at, heap_.top().at);
      ASSERT_EQ(e.payload, heap_.top().payload);
      heap_.pop();
      pops_++;
    }
    ASSERT_EQ(cal_.size(), heap_.size());
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] Time head() const { return heap_.top().at; }
  [[nodiscard]] u64 pops() const { return pops_; }
  [[nodiscard]] SecondCalendar& calendar() { return cal_; }

 private:
  struct Item {
    Time at;
    u64 seq;
    u32 payload;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  SecondCalendar cal_;
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  u64 seq_ = 0;
  u32 next_payload_ = 0;
  u64 pops_ = 0;
};

TEST(SecondCalendarProperty, MatchesPriorityQueueOnPopulationStreams) {
  constexpr i64 kNs = 1'000'000'000;
  const u32 horizons[] = {1, 3, 16, 64, 1024};
  u64 total_pops = 0;
  for (u64 seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const u32 max_poll_s = horizons[seed % std::size(horizons)];
    CheckedCalendar q(max_poll_s);
    Time now = sec(static_cast<i64>(rng.uniform(0, 1'000'000))) +
               Duration::nanos(static_cast<i64>(rng.uniform(0, kNs - 1)));
    for (int step = 0; step < 3'000; ++step) {
      // Simulated time moves on, but never past the head: the population's
      // driver event fires at the calendar's next deadline.
      switch (rng.uniform(0, 3)) {
        case 0:
          break;
        case 1:
          now = now + Duration::nanos(
                          static_cast<i64>(rng.uniform(1, kNs - 1)));
          break;
        case 2:
          now = now + Duration::seconds(static_cast<i64>(rng.uniform(1, 3)));
          break;
        default:
          now = sec(now.ns() / kNs + 1);
          break;
      }
      if (!q.empty()) now = std::min(now, q.head());
      if (rng.chance(0.5)) {
        q.pop_until(now);
        if (HasFatalFailure()) return;
      }
      const u64 ops = rng.uniform(0, 4);
      for (u64 op = 0; op < ops; ++op) {
        const double r = rng.uniform01();
        if (r < 0.45) {  // arm(): whole seconds 1..max_poll_s ahead
          const auto ahead = static_cast<i64>(rng.uniform(1, max_poll_s));
          q.push(sec(now.ns() / kNs + ahead));
        } else if (r < 0.7) {  // on_dns(): poll now
          q.push(now);
        } else {
          q.check_peek();
          if (HasFatalFailure()) return;
        }
      }
    }
    q.pop_until(Time::from_ns(std::numeric_limits<i64>::max()));
    if (HasFatalFailure()) return;
    EXPECT_TRUE(q.calendar().empty());
    EXPECT_EQ(q.calendar().memory_bytes(),
              SecondCalendar(max_poll_s).memory_bytes())
        << "drained seconds must free their buckets";
    total_pops += q.pops();
  }
  EXPECT_GT(total_pops, 100'000u);
}

TEST(SecondCalendar, PushIntoASkippedSecondPopsFirst) {
  SecondCalendar cal(64);
  cal.push(sec(3), 1);
  cal.push(sec(8), 2);
  SecondCalendar::Entry e;
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.payload, 1u);
  // The pop walked the cursor over the empty seconds 4..7.
  ASSERT_EQ(cal.peek()->at, sec(8));
  // A poll armed 2 s after the pop lands in skipped second 5.
  cal.push(sec(5), 3);
  ASSERT_EQ(cal.peek()->payload, 3u);
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.at, sec(5));
  EXPECT_EQ(e.payload, 3u);
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.at, sec(8));
  EXPECT_EQ(e.payload, 2u);
  EXPECT_FALSE(cal.pop(e));
}

TEST(SecondCalendar, NowPushAfterItsSecondDrainedStillPopsInOrder) {
  SecondCalendar cal(64);
  cal.push(sec(4), 1);
  cal.push(sec(4), 2);
  cal.push(sec(9), 3);
  SecondCalendar::Entry e;
  ASSERT_TRUE(cal.pop(e));
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.payload, 2u);
  ASSERT_EQ(cal.peek()->at, sec(9));  // second 4 drained; cursor moved on
  // A DNS answer at 4.3 s polls its waiters immediately.
  const Time at = sec(4) + Duration::millis(300);
  cal.push(at, 4);
  cal.push(at, 5);
  for (u32 want : {4u, 5u}) {
    ASSERT_TRUE(cal.pop(e));
    EXPECT_EQ(e.at, at);
    EXPECT_EQ(e.payload, want);
  }
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.payload, 3u);
  EXPECT_TRUE(cal.empty());
}

TEST(SecondCalendar, RejectsPushesThatWouldReorder) {
  SecondCalendar cal(14);  // ring of bit_ceil(14 + 2) = 16 seconds
  cal.push(sec(5), 1);
  SecondCalendar::Entry e;
  ASSERT_TRUE(cal.pop(e));
  EXPECT_THROW(cal.push(sec(5) - Duration::nanos(1), 2), std::logic_error)
      << "a push into the past";
  cal.push(sec(5) + Duration::millis(500), 3);
  EXPECT_THROW(cal.push(sec(5) + Duration::millis(200), 4), std::logic_error)
      << "a push before the newest entry of its second";
  EXPECT_THROW(cal.push(sec(21), 5), std::logic_error)
      << "16 s past the earliest queued second is beyond the ring";
  cal.push(sec(20), 6);  // the ring's last second still fits
  // Rejected pushes leave no trace.
  ASSERT_EQ(cal.size(), 2u);
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.payload, 3u);
  ASSERT_TRUE(cal.pop(e));
  EXPECT_EQ(e.payload, 6u);
  EXPECT_TRUE(cal.empty());
}

}  // namespace
}  // namespace dnstime::sim
