#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"

namespace dnstime::sim {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(3), [&] { order.push_back(3); });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  loop.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_after(Duration::seconds(5), [&, i] { order.push_back(i); });
  }
  loop.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_after(Duration::seconds(1), [&] { ran++; });
  loop.schedule_after(Duration::seconds(5), [&] { ran++; });
  loop.run_until(Time::from_ns(Duration::seconds(2).ns()));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now().to_seconds(), 2.0);
  loop.run_all();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, CancelledEventsDoNotRun) {
  EventLoop loop;
  bool ran = false;
  auto h = loop.schedule_after(Duration::seconds(1), [&] { ran = true; });
  h.cancel();
  loop.run_all();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(Duration::seconds(1), recurse);
  };
  loop.schedule_after(Duration::seconds(1), recurse);
  loop.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().to_seconds(), 5.0);
}

TEST(EventLoop, PastScheduledEventClampsToNow) {
  EventLoop loop;
  loop.run_until(Time::from_ns(Duration::seconds(10).ns()));
  bool ran = false;
  loop.schedule_at(Time::from_ns(1), [&] { ran = true; });
  loop.run_for(Duration::seconds(1));
  EXPECT_TRUE(ran);
}

TEST(EventLoop, ClampedEventRunsAtNowNotInThePast) {
  EventLoop loop;
  loop.run_until(Time::from_ns(Duration::seconds(10).ns()));
  Time fired_at;
  loop.schedule_at(Time::from_ns(1), [&] { fired_at = loop.now(); });
  loop.run_all();
  EXPECT_EQ(fired_at, Time::from_ns(Duration::seconds(10).ns()));
  EXPECT_EQ(loop.now(), fired_at);  // the clock never moved backwards
}

TEST(EventLoop, FifoAtEqualTimestampsSurvivesHeapRebuilds) {
  // Equal-timestamp FIFO is the determinism contract's hard part: pops and
  // interleaved pushes reshuffle the heap, and any comparison that ignores
  // the sequence number reorders ties. Build a worst case: ties scheduled
  // in several batches, separated by pops that force sift-downs.
  EventLoop loop;
  std::vector<int> order;
  int tag = 0;
  for (int batch = 0; batch < 4; ++batch) {
    // Earlier filler events whose pops rebuild the heap below the ties.
    for (int i = 0; i < 7; ++i) {
      loop.schedule_after(Duration::seconds(1 + i), [] {});
    }
    for (int i = 0; i < 25; ++i) {
      loop.schedule_at(Time::from_ns(Duration::minutes(5).ns()),
                       [&order, t = tag++] { order.push_back(t); });
    }
    loop.run_until(loop.now() + Duration::seconds(10));
  }
  loop.run_all();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, StaleHandleCannotCancelRecycledSlot) {
  EventLoop loop;
  bool first_ran = false;
  bool second_ran = false;
  EventHandle h1 =
      loop.schedule_after(Duration::seconds(1), [&] { first_ran = true; });
  EXPECT_TRUE(h1.valid());
  loop.run_for(Duration::seconds(2));
  EXPECT_TRUE(first_ran);
  EXPECT_FALSE(h1.valid());  // fired: handle is stale

  // The fired event's slot is recycled for the next schedule; the stale
  // handle must be inert against the new occupant.
  EventHandle h2 =
      loop.schedule_after(Duration::seconds(1), [&] { second_ran = true; });
  h1.cancel();
  EXPECT_TRUE(h2.valid());
  loop.run_all();
  EXPECT_TRUE(second_ran);
}

TEST(EventLoop, CancelledHandleStaysInertAfterSlotReuse) {
  EventLoop loop;
  bool victim_ran = false;
  EventHandle h = loop.schedule_after(Duration::seconds(1), [] {});
  h.cancel();
  EXPECT_FALSE(h.valid());
  loop.run_all();  // pops the cancelled event, releasing its slot
  loop.schedule_after(Duration::seconds(1), [&] { victim_ran = true; });
  h.cancel();  // double-cancel on a recycled slot
  loop.run_all();
  EXPECT_TRUE(victim_ran);
}

TEST(EventLoop, CancelFromInsideAnEarlierEvent) {
  EventLoop loop;
  bool ran = false;
  EventHandle h =
      loop.schedule_after(Duration::seconds(2), [&] { ran = true; });
  loop.schedule_after(Duration::seconds(1), [&] { h.cancel(); });
  loop.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.now().to_seconds(), 2.0);  // cancelled pop still advances
}

TEST(EventLoop, RunUntilIncludesEventsExactlyAtBoundary) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_after(Duration::seconds(5), [&] { ran++; });
  loop.schedule_after(Duration::seconds(5) + Duration::nanos(1),
                      [&] { ran++; });
  loop.run_until(Time::from_ns(Duration::seconds(5).ns()));
  EXPECT_EQ(ran, 1);  // at-boundary runs, past-boundary waits
  EXPECT_EQ(loop.now(), Time::from_ns(Duration::seconds(5).ns()));
  loop.run_all();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, HandleLifecycleAcrossSchedulingBursts) {
  // Churn through many schedule/fire/cancel cycles so slots recycle
  // repeatedly, and verify the loop never misfires or double-fires.
  EventLoop loop;
  int fired = 0;
  std::vector<EventHandle> cancelled;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      loop.schedule_after(Duration::millis(10 * (i + 1)), [&] { fired++; });
      cancelled.push_back(
          loop.schedule_after(Duration::millis(5 * (i + 1)), [&] {
            ADD_FAILURE() << "cancelled event fired";
          }));
    }
    for (EventHandle& h : cancelled) h.cancel();
    cancelled.clear();
    loop.run_for(Duration::seconds(1));
    EXPECT_EQ(loop.pending(), 0u);
  }
  EXPECT_EQ(fired, 50 * 8);
}

TEST(EventLoop, MoveOnlyCallbacksAreSupported) {
  // EventFn is move-only with small-buffer optimisation: a unique_ptr
  // capture (uncopyable) and an oversized capture must both work.
  EventLoop loop;
  int out = 0;
  auto owned = std::make_unique<int>(41);
  loop.schedule_after(Duration::seconds(1),
                      [p = std::move(owned), &out] { out = *p + 1; });
  struct Big {
    char pad[200] = {};
  };
  bool big_ran = false;
  loop.schedule_after(Duration::seconds(2),
                      [big = Big{}, &big_ran] { big_ran = big.pad[0] == 0; });
  loop.run_all();
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(big_ran);
}

TEST(EventLoop, CancelDestroysCallbackEagerly) {
  // Regression: cancel() used to only flag the slot, leaving the SmallFn —
  // and everything it captured — alive until the timestamp popped. A
  // cancelled far-future timer (say a 6-hour attack deadline holding a
  // PacketBuf) would pin its pool block for simulated hours. cancel() must
  // release captured resources immediately.
  const u64 base = BufferPool::local().outstanding();
  EventLoop loop;
  PacketBuf buf{1, 2, 3, 4};
  EXPECT_EQ(BufferPool::local().outstanding(), base + 1);
  EventHandle h = loop.schedule_after(Duration::hours(6),
                                      [b = std::move(buf)] { (void)b; });
  EXPECT_EQ(BufferPool::local().outstanding(), base + 1);
  h.cancel();
  EXPECT_EQ(BufferPool::local().outstanding(), base)
      << "cancelled slot must not keep its capture until the pop";
  // The cancelled node still pops (advancing the clock) without firing.
  loop.run_all();
  EXPECT_EQ(loop.now().to_seconds(), Duration::hours(6).to_seconds());
  EXPECT_EQ(loop.stats().cancelled, 1u);
}


// ---- Differential test: EventLoop against a plain priority queue ----

/// The loop's contract restated as plainly as possible: a
/// std::priority_queue on (at, seq) plus a set of cancelled ids. Times clamp
/// to now, ties pop in schedule order, a cancelled event still pops (and
/// moves the clock) without firing, a cancel after the pop does nothing,
/// and run_until runs events at exactly `until` and then sets the clock.
class ReferenceLoop {
 public:
  explicit ReferenceLoop(std::function<void(int)> fire)
      : fire_(std::move(fire)) {}

  void schedule_at(Time at, int id) {
    ASSERT_EQ(static_cast<std::size_t>(id), done_.size());
    queue_.push(Entry{std::max(at, now_), seq_++, id});
    done_.push_back(false);
  }
  void cancel(int id) {
    if (!done_[static_cast<std::size_t>(id)]) cancelled_.insert(id);
  }
  void run_until(Time until) {
    while (!queue_.empty() && queue_.top().at <= until) pop();
    now_ = std::max(now_, until);
  }
  void run_all() {
    while (!queue_.empty()) pop();
  }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    Time at;
    u64 seq;
    int id;
    bool operator>(const Entry& o) const {
      return std::tie(at, seq) > std::tie(o.at, o.seq);
    }
  };

  void pop() {
    const Entry e = queue_.top();
    queue_.pop();
    now_ = e.at;
    done_[static_cast<std::size_t>(e.id)] = true;
    if (cancelled_.erase(e.id) == 0) fire_(e.id);
  }

  std::function<void(int)> fire_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<bool> done_;  ///< popped, fired or not
  std::set<int> cancelled_;
  Time now_;
  u64 seq_ = 0;
};

/// EventLoop behind the same interface: event `id` calls `fire(id)`.
class LoopUnderTest {
 public:
  explicit LoopUnderTest(std::function<void(int)> fire)
      : fire_(std::move(fire)) {}

  void schedule_at(Time at, int id) {
    handles_.push_back(loop_.schedule_at(at, [this, id] { fire_(id); }));
  }
  void cancel(int id) { handles_[static_cast<std::size_t>(id)].cancel(); }
  void run_until(Time until) { loop_.run_until(until); }
  void run_all() { loop_.run_all(); }
  [[nodiscard]] Time now() const { return loop_.now(); }
  [[nodiscard]] std::size_t pending() const { return loop_.pending(); }

 private:
  std::function<void(int)> fire_;
  EventLoop loop_;
  std::vector<EventHandle> handles_;
};

/// One fired event, or (id -1) the state after a run_until cut-off.
struct Observed {
  int id;
  i64 now_ns;
  std::size_t pending;
  bool operator==(const Observed&) const = default;
};

/// A seeded random stream of loop operations. The top-level stream fills
/// the queue to a random size in 1..300 and drains it with run_until
/// cut-offs, interleaving schedules and cancels. Each fired event then
/// acts by a plan drawn from (seed, id) alone, so both loops see the same
/// plan for the same event: it may schedule children at now, in the past
/// (clamped) or later, and cancel itself (stale from inside), a recent
/// event (usually live) or any earlier one (often stale). Times sit on a
/// 1 ms grid a few ms apart, so most instants are shared by many events.
template <class Loop>
class RandomStream {
 public:
  explicit RandomStream(u64 seed) : seed_(seed), rng_(seed) {}

  std::vector<Observed> run() {
    for (int round = 0; round < 40; ++round) {
      const std::size_t target = rng_.uniform(1, 300);
      while (loop_.pending() < target) {
        schedule(rng_.uniform(0, ~u64{0}));
        if (rng_.chance(0.15)) cancel(rng_.uniform(0, ~u64{0}));
      }
      max_pending_ = std::max(max_pending_, loop_.pending());
      const std::size_t low = rng_.uniform(0, target);
      for (int cut = 0; cut < 300 && loop_.pending() > low; ++cut) {
        loop_.run_until(loop_.now() +
                        Duration::millis(static_cast<i64>(rng_.uniform(0, 20))));
        log_.push_back(Observed{-1, loop_.now().ns(), loop_.pending()});
        if (rng_.chance(0.2)) schedule(rng_.uniform(0, ~u64{0}));
        if (rng_.chance(0.2)) cancel(rng_.uniform(0, ~u64{0}));
      }
    }
    loop_.run_all();
    log_.push_back(Observed{-1, loop_.now().ns(), loop_.pending()});
    return log_;
  }

  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }

 private:
  /// A time on the 1 ms grid: now, up to 5 ms in the past (clamped), a few
  /// ms ahead (ties), up to 100 ms ahead, or 1-2 s ahead (deep nodes).
  Time pick_time(u64 r) const {
    const Time now = loop_.now();
    const i64 k = static_cast<i64>((r >> 8) % 1000);
    switch (r % 8) {
      case 0:
        return now;
      case 1:
        return now - Duration::millis(1 + k % 5);
      case 2:
      case 3:
      case 4:
        return now + Duration::millis(k % 4);
      case 5:
      case 6:
        return now + Duration::millis(k % 100);
      default:
        return now + Duration::millis(1000 + k);
    }
  }

  void schedule(u64 r) { loop_.schedule_at(pick_time(r), next_id_++); }

  /// Cancels a recent event (usually still live) or any earlier one.
  void cancel(u64 r) {
    if (next_id_ == 0) return;
    const u64 span = (r & 1) != 0 ? std::min<u64>(8, next_id_) : next_id_;
    loop_.cancel(next_id_ - 1 - static_cast<int>((r >> 1) % span));
  }

  void fire(int id) {
    log_.push_back(Observed{id, loop_.now().ns(), loop_.pending()});
    const u64 plan = mix_seed(seed_, static_cast<u64>(id));
    const int children = plan % 10 < 3 ? 1 : plan % 10 < 4 ? 2 : 0;
    for (int c = 0; c < children; ++c) {
      schedule(mix_seed(seed_, static_cast<u64>(id), 1 + static_cast<u64>(c)));
    }
    switch ((plan >> 8) % 10) {
      case 0:
        loop_.cancel(id);  // stale: the event is firing
        break;
      case 1:
      case 2:
        cancel(mix_seed(seed_, static_cast<u64>(id), 9));
        break;
      default:
        break;
    }
  }

  u64 seed_;
  Rng rng_;
  int next_id_ = 0;
  std::vector<Observed> log_;
  std::size_t max_pending_ = 0;
  Loop loop_{[this](int id) { fire(id); }};
};

TEST(EventLoop, MatchesPriorityQueueOnRandomStreams) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    RandomStream<ReferenceLoop> reference(seed);
    RandomStream<LoopUnderTest> loop(seed);
    const std::vector<Observed> want = reference.run();
    const std::vector<Observed> got = loop.run();
    // The stream must cover what it is for: deep heaps and thousands of
    // pops.
    EXPECT_GE(reference.max_pending(), 250u) << "seed " << seed;
    EXPECT_GE(want.size(), 3000u) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "seed " << seed << ", observation " << i << ": got id "
          << got[i].id << " at " << got[i].now_ns << " ns, want id "
          << want[i].id << " at " << want[i].now_ns << " ns";
    }
  }
}

/// Counts its own moves. The declared move constructor deletes the copy
/// constructor, so every transfer is a counted move.
struct MoveCounter {
  int* moves;
  int* calls;
  MoveCounter(int* m, int* c) : moves(m), calls(c) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves), calls(o.calls) {
    ++*moves;
  }
  void operator()() { ++*calls; }
};

TEST(EventLoop, ScheduledCallableMovesTwiceInAndOnceAtDispatch) {
  // schedule_at forwards the callable into its slot and builds the EventFn
  // there: one move into the EventFn, one into the slot. Dispatch moves it
  // out once (so a callback can cancel its own handle). A by-value EventFn
  // parameter chain took 5 moves into a new slot and 4 into a recycled one.
  EventLoop loop;
  int moves = 0;
  int calls = 0;
  loop.schedule_after(Duration::seconds(1), MoveCounter{&moves, &calls});
  EXPECT_LE(moves, 2) << "into a new slot";
  moves = 0;
  loop.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(moves, 1) << "at dispatch from a new slot";

  moves = 0;  // the fired event's slot is now on the free list
  loop.schedule_after(Duration::seconds(1), MoveCounter{&moves, &calls});
  EXPECT_LE(moves, 2) << "into a recycled slot";
  moves = 0;
  loop.run_all();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(moves, 1) << "at dispatch from a recycled slot";
}

}  // namespace
}  // namespace dnstime::sim
