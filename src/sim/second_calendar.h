// Per-second calendar queue — the fleet-scale sibling of EventLoop.
//
// scenario::ClientPopulation queues its clients' poll deadlines here in
// batches: one push carries every client index that one call re-arms for
// the same instant. Every deadline is a whole second at most max_poll_s
// ahead, or "now" when a DNS answer lands. For that push pattern a ring of
// per-second FIFO buckets of batches is an exact priority queue: a grid
// push for second s happens strictly before s, and an off-grid push
// happens at its own time, so each bucket fills in (time, push-order)
// order and popping the earliest bucket front to back pops in (time, seq)
// order — what a heap would pop if each element of a batch had its own
// consecutive seq — at O(1) per batch. pop_due() drains everything due in
// one pass per second. tests/sim/second_calendar_test.cpp checks each
// drain against a std::priority_queue; src/sim/README.md has the contract
// and when to use the heap instead.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/time.h"

namespace dnstime::sim {

class SecondCalendar {
 public:
  struct Entry {
    Time at;
    u32 payload = 0;
  };

  /// Pushes may land up to `horizon_s` seconds past the current second.
  /// The ring holds the next power of two >= horizon_s + 2 buckets: the
  /// horizon, the current second, and one second of slack.
  explicit SecondCalendar(u32 horizon_s)
      : ring_(std::bit_ceil(u64{horizon_s} + 2)), mask_(ring_.size() - 1) {}

  /// Queue every payload of `batch` for `at`, in batch order; an empty
  /// batch is a no-op. Throws std::logic_error, rather than reordering,
  /// when `at` is before the last pop, before the newest batch of its own
  /// second, or a ring or more past the earliest queued second.
  void push(Time at, std::vector<u32> batch) {
    if (batch.empty()) return;
    if (at < floor_) {
      throw std::logic_error("SecondCalendar: push into the past");
    }
    const u64 s = static_cast<u64>(at.ns() / kNsPerS);
    // pop_due() moves the cursor past empty seconds; a push into one of
    // them moves it back (nothing there has popped yet).
    const u64 lo = size_ == 0 ? s : std::min(cur_, s);
    const u64 hi = size_ == 0 ? s : std::max(hi_, s);
    if (hi - lo > mask_) {
      throw std::logic_error("SecondCalendar: push beyond the ring");
    }
    std::vector<Batch>& batches = ring_[s & mask_].batches;
    const auto ns = static_cast<u32>(at.ns() % kNsPerS);
    if (!batches.empty() && ns < batches.back().ns) {
      throw std::logic_error("SecondCalendar: push before its second's tail");
    }
    size_ += batch.size();
    batches.push_back({ns, std::move(batch)});
    cur_ = lo;
    hi_ = hi;
  }

  /// Earliest entry by (at, push order), or nullopt when empty.
  [[nodiscard]] std::optional<Entry> peek() const {
    if (size_ == 0) return std::nullopt;
    const Bucket& b = ring_[cur_ & mask_];
    const Batch& batch = b.batches[b.head];
    return Entry{Time::from_ns(static_cast<i64>(cur_) * kNsPerS + batch.ns),
                 batch.payloads.front()};
  }

  /// Append the payloads of every batch due at or before `now` to `out`, in
  /// (at, push) order: one front-to-back pass over each due bucket, which
  /// stops at the first batch past `now`. A popped batch frees its
  /// payloads and a drained second its bucket, so memory follows the live
  /// entries; the cursor then moves on to the next queued second.
  void pop_due(Time now, std::vector<u32>& out) {
    while (size_ != 0) {
      const i64 base = static_cast<i64>(cur_) * kNsPerS;
      if (base > now.ns()) return;
      Bucket& b = ring_[cur_ & mask_];
      const i64 due_ns = now.ns() - base;  // batches past this stay queued
      std::size_t h = b.head;
      while (h < b.batches.size() && b.batches[h].ns <= due_ns) {
        std::vector<u32> payloads = std::move(b.batches[h++].payloads);
        out.insert(out.end(), payloads.begin(), payloads.end());
        size_ -= payloads.size();
      }
      if (h == b.head) return;
      floor_ = Time::from_ns(base + b.batches[h - 1].ns);
      if (h < b.batches.size()) {
        b.head = h;
        return;
      }
      std::vector<Batch>().swap(b.batches);
      b.head = 0;
      if (size_ != 0) {
        do cur_++;
        while (ring_[cur_ & mask_].batches.empty());
      }
    }
  }

  /// Queued payloads, across all batches.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Heap bytes held by the ring, its buckets and their batches (capacity,
  /// not size).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = ring_.capacity() * sizeof(Bucket);
    for (const Bucket& b : ring_) {
      bytes += b.batches.capacity() * sizeof(Batch);
      for (const Batch& batch : b.batches) {
        bytes += batch.payloads.capacity() * sizeof(u32);
      }
    }
    return bytes;
  }

 private:
  static constexpr i64 kNsPerS = 1'000'000'000;

  struct Batch {
    u32 ns;  ///< nanoseconds past the bucket's second
    std::vector<u32> payloads;  ///< non-empty until popped
  };
  struct Bucket {
    std::vector<Batch> batches;  ///< push order; empty once drained
    std::size_t head = 0;        ///< next batch to pop
  };

  std::vector<Bucket> ring_;
  u64 mask_;
  /// Earliest queued second (when size_ > 0). Every queued second lies in
  /// [cur_, hi_], and push keeps hi_ - cur_ <= mask_, so no two share a
  /// bucket.
  u64 cur_ = 0;
  u64 hi_ = 0;   ///< latest queued second
  Time floor_;   ///< time of the last pop
  std::size_t size_ = 0;
};

}  // namespace dnstime::sim
