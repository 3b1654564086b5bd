#include "net/reassembly.h"

#include <algorithm>
#include <cstring>

#include "obs/provenance.h"

namespace dnstime::net {

std::optional<Ipv4Packet> ReassemblyCache::insert(const Ipv4Packet& frag,
                                                  sim::Time now) {
  Key key{frag.src, frag.dst, frag.protocol, frag.id};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (count_pair(key) >= policy_.max_datagrams_per_pair) {
      // Per-pair overflow: the OS refuses to cache more incomplete
      // datagrams for this endpoint pair. The attacker's spray width is
      // bounded by this.
      evicted_overflow_++;
      return std::nullopt;
    }
    Entry fresh;
    fresh.first_seen = now;
    it = entries_.emplace(key, std::move(fresh)).first;
    pair_counts_[PairKey{key.src, key.dst, key.proto}]++;
  }
  Entry& entry = it->second;

  // First arrival wins for a given offset: a spoofed fragment already in
  // the cache is *not* displaced by the genuine one.
  if (!entry.parts.contains(frag.frag_offset_units)) {
    entry.parts.emplace(frag.frag_offset_units, frag.payload);
    if (!frag.more_fragments) {
      entry.have_last = true;
      entry.total_payload = frag.frag_offset_bytes() + frag.payload.size();
    }
  }

  auto done = try_complete(key, entry);
  if (done) {
    DNSTIME_PROV_EVENT(reassembled(now.ns(), done->payload.origin(),
                                   done->payload.size(),
                                   it->second.parts.size()));
    erase_entry(it);
  }
  return done;
}

std::optional<Ipv4Packet> ReassemblyCache::try_complete(const Key& key,
                                                        Entry& entry) {
  if (!entry.have_last) return std::nullopt;
  // Check contiguous coverage [0, total_payload).
  std::size_t covered = 0;
  for (const auto& [offset_units, part] : entry.parts) {
    std::size_t start = std::size_t{offset_units} * 8;
    if (start > covered) return std::nullopt;  // hole
    covered = std::max(covered, start + part.size());
  }
  if (covered < entry.total_payload) return std::nullopt;

  Ipv4Packet full;
  full.src = key.src;
  full.dst = key.dst;
  full.protocol = key.proto;
  full.id = key.id;
  // Assemble directly into one pooled buffer. Uninitialised is safe: the
  // coverage check above proved the parts tile [0, total_payload) without
  // holes, so every byte is written below (overlaps resolve in ascending
  // offset order, same as the wire semantics of duplicate coverage).
  full.payload = PacketBuf::uninitialized(entry.total_payload);
  // The merged datagram inherits the dominant part's provenance: a spoofed
  // part wins (that contamination is the whole point of the paper's
  // fragment attack), otherwise the first fragment's stamp. Either way the
  // reassembled flag marks that this payload was stitched from fragments.
  {
    const PacketBuf* dominant = nullptr;
    for (const auto& [offset_units, part] : entry.parts) {
      if (dominant == nullptr) dominant = &part;
      if (part.origin().spoofed()) {
        dominant = &part;
        break;
      }
    }
    Origin merged = dominant->origin();
    merged.flags |= Origin::kReassembled;
    full.payload.set_origin(merged);
  }
  u8* out = full.payload.data();
  for (const auto& [offset_units, part] : entry.parts) {
    std::size_t start = std::size_t{offset_units} * 8;
    // A part can start at/after the datagram end (a crafted fragment that
    // overlaps past a shorter genuine last fragment); offsets ascend, so
    // nothing further contributes. (The old copy path underflowed
    // `total - start` here and wrote out of bounds.)
    if (start >= entry.total_payload) break;
    std::size_t n = std::min(part.size(), entry.total_payload - start);
    if (n != 0) std::memcpy(out + start, part.data(), n);
  }
  completed_++;
  return full;
}

void ReassemblyCache::expire(sim::Time now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (now - it->second.first_seen >= kReassemblyTimeout) {
      it = erase_entry(it);
      expired_++;
    } else {
      ++it;
    }
  }
}

std::size_t ReassemblyCache::count_pair(const Key& key) const {
  auto it = pair_counts_.find(PairKey{key.src, key.dst, key.proto});
  return it == pair_counts_.end() ? 0 : it->second;
}

std::map<ReassemblyCache::Key, ReassemblyCache::Entry>::iterator
ReassemblyCache::erase_entry(std::map<Key, Entry>::iterator it) {
  auto cit = pair_counts_.find(
      PairKey{it->first.src, it->first.dst, it->first.proto});
  if (cit != pair_counts_.end() && --cit->second == 0) {
    pair_counts_.erase(cit);
  }
  return entries_.erase(it);
}

}  // namespace dnstime::net
