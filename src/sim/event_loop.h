// Deterministic discrete-event loop.
//
// Events at equal timestamps are ordered by insertion sequence, so a
// scenario replays identically for a fixed RNG seed regardless of container
// iteration quirks. This determinism is what lets the Table II attack
// durations be regression-tested. See src/sim/README.md for the full
// contract.
//
// The implementation is built for the campaign engine's hot path
// (millions of schedule/fire cycles per trial batch):
//  * a 4-ary implicit heap over a flat vector of 24-byte POD nodes
//    {time, seq, slot} — shallower than a binary heap, and sift-up/down
//    shuffle plain values, never callbacks (std::priority_queue::top() is
//    const, which forced the old loop to deep-copy the callback on every
//    dispatch);
//  * one packed 128-bit key per node, time above seq, orders the heap:
//    tied timestamps cost no second compare, and sift-down picks the
//    earliest of a full group of four children with selects, not jumps,
//    so the pops of idle timers tied on whole seconds (most of a long
//    trial's events) take no data-dependent branch inside a group;
//  * callbacks live in a slot pool recycled through a free-list. The
//    scheduled callable is forwarded into its slot, where its EventFn is
//    built, so it moves at most twice on the way in and once at
//    dispatch, and the steady-state schedule/fire cycle allocates
//    nothing beyond what the callback capture itself needs;
//  * slots carry a generation counter that backs cancellation handles —
//    a stale handle can never touch the slot's next occupant;
//  * callbacks are SmallFn (src/common/function.h): move-only with a
//    64-byte inline buffer, so a typical capture (an object pointer plus
//    an index or a handle) never touches the heap.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/function.h"
#include "obs/counters.h"
#include "sim/time.h"

namespace dnstime::sim {

using EventFn = SmallFn<void()>;

class EventLoop;

/// Handle used to cancel a scheduled event. The heap node stays queued until
/// its timestamp pops (and is then skipped), but the callback itself is
/// destroyed eagerly by cancel(): a cancelled callback can capture resources
/// with global accounting (a PacketBuf keeping blocks outstanding, an
/// object keep-alive) and must not pin them until some far-future timestamp
/// is reached. Handles are generation-checked:
/// once the event has fired or been cancelled, the handle goes stale and
/// cancel() is a no-op even if the internal slot has been recycled for a
/// newer event. A handle must not outlive its EventLoop (holders in this
/// codebase all reference the loop through World/Network, which guarantees
/// the ordering).
class EventHandle {
 public:
  EventHandle() = default;

  inline void cancel();
  /// True while the event is still queued, uncancelled and unfired.
  [[nodiscard]] inline bool valid() const;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, u32 slot, u32 gen)
      : loop_(loop), slot_(slot), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  u32 slot_ = 0;
  u32 gen_ = 0;
};

class EventLoop {
 public:
  /// Lifetime counters, kept as plain members (one increment per event —
  /// cheap enough for the schedule/fire hot path) and folded into the
  /// obs registry once, at loop destruction.
  struct Stats {
    u64 scheduled = 0;  ///< events accepted by schedule_at
    u64 fired = 0;      ///< callbacks actually run
    u64 cancelled = 0;  ///< events popped in the cancelled state
    u64 heap_peak = 0;  ///< high-water mark of the pending-event heap
  };

  EventLoop() = default;
  ~EventLoop() {
    DNSTIME_COUNT_ADD("sim.events_scheduled", stats_.scheduled);
    DNSTIME_COUNT_ADD("sim.events_fired", stats_.fired);
    DNSTIME_COUNT_ADD("sim.events_cancelled", stats_.cancelled);
    if (stats_.heap_peak != 0) DNSTIME_HIST("sim.heap_peak", stats_.heap_peak);
  }
  // Pinned in place: EventHandles hold a pointer back to their loop, so
  // moving or copying the loop would silently invalidate every
  // outstanding handle. Deleting these makes the invariant
  // compiler-checked.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to >= now). `fn`
  /// is any callable EventFn accepts; its EventFn is built in the slot.
  template <class F>
  EventHandle schedule_at(Time at, F&& fn) {
    if (at < now_) at = now_;
    const u32 slot = acquire_slot(std::forward<F>(fn));
    heap_push(Node{at, seq_++, slot});
    stats_.scheduled++;
    if (heap_.size() > stats_.heap_peak) stats_.heap_peak = heap_.size();
    return EventHandle{this, slot, slots_[slot].gen};
  }

  template <class F>
  EventHandle schedule_after(Duration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Run events until the queue drains or `until` is reached. Events at
  /// exactly `until` still run; the clock never advances past `until`.
  void run_until(Time until) {
    while (!heap_.empty() && heap_.front().at <= until) {
      step();
    }
    if (now_ < until) now_ = until;
  }

  void run_for(Duration d) { run_until(now_ + d); }

  /// Drain every queued event (useful in unit tests of small exchanges).
  void run_all() {
    while (!heap_.empty()) step();
  }

  /// Queued events, including lazily-cancelled ones not yet popped.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// The seq the next scheduled event will take. Two events with adjacent
  /// seqs at one instant pop back to back, whatever else is queued.
  [[nodiscard]] u64 next_seq() const { return seq_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class EventHandle;

  static constexpr u32 kNoSlot = std::numeric_limits<u32>::max();
  static constexpr std::size_t kArity = 4;

  /// Heap node: trivially copyable, 24 bytes. The callback stays in its
  /// slot; only these shuffle during sifts.
  struct Node {
    Time at;
    u64 seq;
    u32 slot;
  };
  /// One in-flight event's callback, recycled through a free-list. `gen`
  /// increments on every release, so a handle whose generation matches
  /// names the event still queued here, and that event is live while the
  /// slot holds a callback: cancel() empties it.
  struct Slot {
    EventFn fn;
    u32 gen = 0;
    u32 next_free = kNoSlot;
  };

  /// (time, seq) packed into one integer, time in the high half. The cast
  /// keeps order because schedule_at clamps every time to now_ >= 0, and
  /// seq is unique, so no two queued keys are equal.
  using Key = unsigned __int128;
  static Key key(const Node& n) {
    return Key{static_cast<u64>(n.at.ns())} << 64 | n.seq;
  }

  /// Pop the top event, advance the clock, release the slot, and run the
  /// callback unless cancelled (an empty callback). The slot is released
  /// *before* the callback runs, so a callback that schedules may reuse
  /// it — generation bumping keeps old handles inert.
  void step() {
    const Node top = heap_pop();
    now_ = top.at;
    EventFn fn = std::move(slots_[top.slot].fn);
    release_slot(top.slot);
    if (!fn) {
      stats_.cancelled++;
      return;
    }
    stats_.fired++;
    fn();
  }

  /// Builds the callable's EventFn in a recycled or a new slot. The free
  /// list is only touched once the EventFn exists, so a throwing capture
  /// leaves the pool as it was.
  template <class F>
  u32 acquire_slot(F&& fn) {
    u32 s;
    if (free_head_ != kNoSlot) {
      s = free_head_;
      slots_[s].fn = EventFn(std::forward<F>(fn));
      free_head_ = slots_[s].next_free;
    } else {
      s = static_cast<u32>(slots_.size());
      slots_.push_back(Slot{.fn = EventFn(std::forward<F>(fn))});
    }
    return s;
  }

  void release_slot(u32 s) {
    slots_[s].gen++;
    slots_[s].next_free = free_head_;
    free_head_ = s;
  }

  void heap_push(Node node) {
    const Key k = key(node);
    std::size_t i = heap_.size();
    heap_.push_back(node);
    while (i > 0) {
      std::size_t parent = (i - 1) / kArity;
      if (!(k < key(heap_[parent]))) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = node;
  }

  Node heap_pop() {
    const Node out = heap_.front();
    const Node last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift `last` down from the root, pulling the earliest child up into
      // the hole instead of swapping element pairs.
      const Key last_key = key(last);
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t c = i * kArity + 1;
        if (c >= n) break;
        std::size_t best = c;
        Key best_key = key(heap_[c]);
        if (c + kArity <= n) {
          // A full group: a tournament of selects over the four keys.
          // Keys are unique, so the pairing decides nothing about ties.
          const Key k1 = key(heap_[c + 1]);
          const Key k2 = key(heap_[c + 2]);
          const Key k3 = key(heap_[c + 3]);
          const bool b01 = k1 < best_key;
          const bool b23 = k3 < k2;
          const Key k01 = b01 ? k1 : best_key;
          const Key k23 = b23 ? k3 : k2;
          const bool b = k23 < k01;
          best += b ? 2 + b23 : b01;
          best_key = b ? k23 : k01;
        } else {
          // The last, partial group: one to three children.
          for (std::size_t j = c + 1; j < n; ++j) {
            const Key kj = key(heap_[j]);
            if (kj < best_key) {
              best = j;
              best_key = kj;
            }
          }
        }
        if (!(best_key < last_key)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return out;
  }

  Time now_;
  u64 seq_ = 0;
  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  u32 free_head_ = kNoSlot;
  Stats stats_;
};

inline void EventHandle::cancel() {
  if (loop_ == nullptr) return;
  auto& s = loop_->slots_[slot_];
  if (s.gen != gen_) return;
  // Moving the callback out empties the slot, which step() reads as
  // cancelled, before its captures die here: now, not when the timestamp
  // pops.
  EventFn dropped = std::move(s.fn);
}

inline bool EventHandle::valid() const {
  if (loop_ == nullptr) return false;
  const auto& s = loop_->slots_[slot_];
  return s.gen == gen_ && static_cast<bool>(s.fn);
}

}  // namespace dnstime::sim
