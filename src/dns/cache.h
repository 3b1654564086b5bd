// Resolver-side DNS cache with virtual-time TTL expiry.
//
// The cache is the attack's target store: a poisoned RRset persists here
// for its (attacker-chosen) TTL and is handed to every client that asks.
// The RD=0 probing study (Table IV) and the TTL histogram (Fig. 6) read
// through the same lookup path a real client uses.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/origin.h"
#include "dns/records.h"
#include "sim/time.h"

namespace dnstime::dns {

/// Cached RRsets live at most a week, whatever TTL they carry.
inline constexpr u32 kMaxCacheTtl = 7 * 86400;

class DnsCache {
 public:
  /// Insert an RRset; lifetime = min TTL across records, capped by
  /// `max_ttl`. Replaces any existing entry for (name, type). `origin`
  /// is the provenance of the response payload the RRset came from, so a
  /// poisoned entry remembers which spoofed packet planted it.
  void insert(const DnsName& name, RrType type,
              std::vector<ResourceRecord> rrset, sim::Time now,
              u32 max_ttl = kMaxCacheTtl, Origin origin = {});

  /// Fetch a live RRset; returned records carry the *remaining* TTL (this
  /// is what makes the Fig. 6 measurement possible from outside).
  [[nodiscard]] std::optional<std::vector<ResourceRecord>> lookup(
      const DnsName& name, RrType type, sim::Time now) const;

  [[nodiscard]] bool contains(const DnsName& name, RrType type,
                              sim::Time now) const {
    return lookup(name, type, now).has_value();
  }

  /// Remaining TTL in seconds, if cached.
  [[nodiscard]] std::optional<u32> remaining_ttl(const DnsName& name,
                                                 RrType type,
                                                 sim::Time now) const;

  /// Provenance of a live entry (default-constructed Origin when absent
  /// or expired).
  [[nodiscard]] Origin origin(const DnsName& name, RrType type,
                              sim::Time now) const;

  void evict(const DnsName& name, RrType type);
  void clear() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Key {
    std::string name;
    RrType type;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    std::vector<ResourceRecord> rrset;
    sim::Time expires;
    Origin origin;
  };
  std::map<Key, Entry> entries_;
};

}  // namespace dnstime::dns
