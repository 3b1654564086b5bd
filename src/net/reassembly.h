// IPv4 reassembly cache (receiver side).
//
// This is the component the paper's §III attack poisons: a spoofed second
// fragment planted here waits (up to the reassembly timeout — 30 s on
// Linux, 60–120 s on Windows, 60 s per RFC 2460) until the genuine first
// fragment arrives, and is then reassembled with it. The timeout is Linux's;
// the one policy knob models the other OS difference the paper cites: the
// cap on concurrently cached fragments for the same endpoint pair (64 on
// patched Linux, 100 on Windows).
#pragma once

#include <list>
#include <map>
#include <optional>
#include <unordered_map>

#include "net/ipv4.h"
#include "sim/time.h"

namespace dnstime::net {

/// An incomplete datagram is dropped this long after its first fragment
/// arrived (Linux's ipfrag_time).
inline constexpr sim::Duration kReassemblyTimeout = sim::Duration::seconds(30);

struct ReassemblyPolicy {
  /// Max incomplete datagrams cached per (src,dst,proto) pair. Each planted
  /// spoofed fragment with a distinct IPID consumes one slot, so this caps
  /// the attacker's IPID spray width (paper: Linux 64, Windows 100).
  std::size_t max_datagrams_per_pair = 64;
};

class ReassemblyCache {
 public:
  explicit ReassemblyCache(ReassemblyPolicy policy = {}) : policy_(policy) {}

  /// Insert a fragment observed at `now`. Returns the reassembled full
  /// packet once a datagram completes. Duplicate offsets keep the first
  /// arrival (so a planted spoofed fragment beats the genuine one).
  std::optional<Ipv4Packet> insert(const Ipv4Packet& frag, sim::Time now);

  /// Drop datagrams older than the timeout.
  void expire(sim::Time now);

  [[nodiscard]] std::size_t pending_datagrams() const { return entries_.size(); }
  [[nodiscard]] u64 completed() const { return completed_; }
  [[nodiscard]] u64 evicted_overflow() const { return evicted_overflow_; }
  [[nodiscard]] u64 expired() const { return expired_; }

 private:
  struct Key {
    Ipv4Addr src, dst;
    u8 proto;
    u16 id;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    sim::Time first_seen;
    /// offset-units -> payload slice. PacketBuf values alias the arriving
    /// fragments' buffers (refcount only, no byte copies); the single copy
    /// happens at completion, into one pooled output buffer.
    std::map<u16, PacketBuf> parts;
    bool have_last = false;
    std::size_t total_payload = 0;  ///< known once the MF=0 fragment arrives
  };
  /// (src,dst,proto) — the granularity the per-pair cap applies at (the
  /// IPID is what the attacker sprays, so it is *not* part of this key).
  struct PairKey {
    Ipv4Addr src, dst;
    u8 proto;
    friend auto operator<=>(const PairKey&, const PairKey&) = default;
  };

  std::optional<Ipv4Packet> try_complete(const Key& key, Entry& entry);
  [[nodiscard]] std::size_t count_pair(const Key& key) const;
  /// Erase an entry and keep pair_counts_ in sync; returns the next
  /// iterator so expire() can keep sweeping.
  std::map<Key, Entry>::iterator erase_entry(std::map<Key, Entry>::iterator it);

  ReassemblyPolicy policy_;
  std::map<Key, Entry> entries_;
  /// Incomplete datagrams per endpoint pair, maintained on insert/erase/
  /// expire. Keeping the count incrementally turns the per-datagram cap
  /// check from a full-cache scan (O(n²) under a fragment spray) into a
  /// lookup.
  std::map<PairKey, std::size_t> pair_counts_;
  u64 completed_ = 0;
  u64 evicted_overflow_ = 0;
  u64 expired_ = 0;
};

}  // namespace dnstime::net
