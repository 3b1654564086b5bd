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

constexpr i64 kNsPerS = 1'000'000'000;

Time sec(i64 s) { return Time::from_ns(s * kNsPerS); }

std::vector<u32> drain(SecondCalendar& cal, Time now) {
  std::vector<u32> due;
  cal.pop_due(now, due);
  return due;
}

using Payloads = std::vector<u32>;

/// A SecondCalendar and a std::priority_queue fed the same pushes; every
/// peek and drain must agree.
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

  /// Drain everything due at or before `now`: one pop_due must return
  /// exactly the heap's pops at or before `now`, in the heap's order.
  void pop_until(Time now) {
    std::vector<u32> want;
    const i64 first_s = heap_.empty() ? 0 : heap_.top().at.ns() / kNsPerS;
    i64 last_s = first_s;
    while (!heap_.empty() && heap_.top().at <= now) {
      want.push_back(heap_.top().payload);
      last_s = heap_.top().at.ns() / kNsPerS;
      heap_.pop();
    }
    std::vector<u32> got;
    cal_.pop_due(now, got);
    ASSERT_EQ(got, want);
    ASSERT_EQ(cal_.size(), heap_.size());
    pops_ += want.size();
    if (last_s != first_s) multi_second_drains_++;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] Time head() const { return heap_.top().at; }
  [[nodiscard]] u64 pops() const { return pops_; }
  [[nodiscard]] u64 multi_second_drains() const {
    return multi_second_drains_;
  }
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
  u64 multi_second_drains_ = 0;
};

TEST(SecondCalendarProperty, MatchesPriorityQueueOnPopulationStreams) {
  const u32 horizons[] = {1, 3, 16, 64, 1024};
  u64 total_pops = 0;
  u64 multi_second_drains = 0;
  for (u64 seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const u32 max_poll_s = horizons[seed % std::size(horizons)];
    CheckedCalendar q(max_poll_s);
    Time now = sec(static_cast<i64>(rng.uniform(0, 1'000'000))) +
               Duration::nanos(static_cast<i64>(rng.uniform(0, kNsPerS - 1)));
    for (int step = 0; step < 3'000; ++step) {
      // Simulated time moves on, normally never past the head: the
      // population's driver event fires at the calendar's next deadline.
      // A late drain lets it run on first, so one pop_due spans several
      // due seconds; it drains before the next push, as a pump would.
      const bool late = rng.chance(0.1);
      switch (rng.uniform(0, 3)) {
        case 0:
          break;
        case 1:
          now = now + Duration::nanos(
                          static_cast<i64>(rng.uniform(1, kNsPerS - 1)));
          break;
        case 2:
          now = now + Duration::seconds(static_cast<i64>(rng.uniform(1, 3)));
          break;
        default:
          now = sec(now.ns() / kNsPerS + 1);
          break;
      }
      if (!late && !q.empty()) now = std::min(now, q.head());
      if (late || rng.chance(0.5)) {
        q.pop_until(now);
        if (HasFatalFailure()) return;
      }
      const u64 ops = rng.uniform(0, 4);
      for (u64 op = 0; op < ops; ++op) {
        const double r = rng.uniform01();
        if (r < 0.45) {  // arm(): whole seconds 1..max_poll_s ahead
          const auto ahead = static_cast<i64>(rng.uniform(1, max_poll_s));
          q.push(sec(now.ns() / kNsPerS + ahead));
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
    multi_second_drains += q.multi_second_drains();
  }
  EXPECT_GT(total_pops, 100'000u);
  EXPECT_GT(multi_second_drains, 1'000u)
      << "late drains must cover pop_due across several seconds";
}

TEST(SecondCalendar, PushIntoASkippedSecondPopsFirst) {
  SecondCalendar cal(64);
  cal.push(sec(3), 1);
  cal.push(sec(8), 2);
  EXPECT_EQ(drain(cal, sec(3)), Payloads{1});
  // The drain walked the cursor over the empty seconds 4..7.
  ASSERT_EQ(cal.peek()->at, sec(8));
  // A poll armed 2 s after the drain lands in skipped second 5.
  cal.push(sec(5), 3);
  ASSERT_EQ(cal.peek()->at, sec(5));
  ASSERT_EQ(cal.peek()->payload, 3u);
  EXPECT_EQ(drain(cal, sec(5) - Duration::nanos(1)), Payloads{});
  EXPECT_EQ(drain(cal, sec(5)), Payloads{3});
  EXPECT_EQ(drain(cal, sec(8)), Payloads{2});
  EXPECT_TRUE(cal.empty());
}

TEST(SecondCalendar, NowPushAfterItsSecondDrainedStillPopsInOrder) {
  SecondCalendar cal(64);
  cal.push(sec(4), 1);
  cal.push(sec(4), 2);
  cal.push(sec(9), 3);
  EXPECT_EQ(drain(cal, sec(4)), (Payloads{1, 2}));
  ASSERT_EQ(cal.peek()->at, sec(9));  // second 4 drained; cursor moved on
  // A DNS answer at 4.3 s polls its waiters immediately.
  const Time at = sec(4) + Duration::millis(300);
  cal.push(at, 4);
  cal.push(at, 5);
  ASSERT_EQ(cal.peek()->at, at);
  EXPECT_EQ(drain(cal, at), (Payloads{4, 5}));
  EXPECT_EQ(drain(cal, sec(9)), Payloads{3});
  EXPECT_TRUE(cal.empty());
}

TEST(SecondCalendar, RejectsPushesThatWouldReorder) {
  SecondCalendar cal(14);  // ring of bit_ceil(14 + 2) = 16 seconds
  cal.push(sec(5), 1);
  EXPECT_EQ(drain(cal, sec(5)), Payloads{1});
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
  EXPECT_EQ(drain(cal, sec(20)), (Payloads{3, 6}));
  EXPECT_TRUE(cal.empty());
}

TEST(SecondCalendar, MidSecondDrainPopsOnlyTheDuePrefix) {
  SecondCalendar cal(64);
  const Time early = sec(7) + Duration::millis(200);
  const Time late = sec(7) + Duration::millis(800);
  cal.push(sec(7), 1);
  cal.push(early, 2);
  cal.push(late, 3);
  cal.push(sec(9), 4);
  // `now` falls between the two off-grid entries of second 7.
  std::vector<u32> due = {99};
  cal.pop_due(sec(7) + Duration::millis(500), due);
  EXPECT_EQ(due, (Payloads{99, 1, 2})) << "appends the due prefix only";
  ASSERT_EQ(cal.size(), 2u);
  ASSERT_EQ(cal.peek()->at, late);
  EXPECT_EQ(cal.peek()->payload, 3u);
  // The floor is the last drained entry (7.2 s): a push into an earlier,
  // empty second still throws.
  EXPECT_THROW(cal.push(sec(7) - Duration::nanos(1), 5), std::logic_error)
      << "a push before the last drained time";
  ASSERT_EQ(cal.size(), 2u);
  EXPECT_EQ(drain(cal, late - Duration::nanos(1)), Payloads{});
  EXPECT_EQ(drain(cal, late), Payloads{3});
  ASSERT_EQ(cal.peek()->at, sec(9));
  EXPECT_EQ(drain(cal, sec(9)), Payloads{4});
  EXPECT_TRUE(cal.empty());
}

}  // namespace
}  // namespace dnstime::sim
