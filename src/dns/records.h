// DNS resource records.
//
// DNSSEC is modelled structurally (paper's attacks don't depend on crypto
// internals, only on whether validation accepts a record): an RRSIG's
// "signature" is a keyed hash of the covered RRset computed with a per-zone
// secret. A validating resolver that trusts the zone's key recomputes the
// hash; any off-path modification of rdata breaks it. Attackers do not know
// zone secrets, exactly as they cannot forge real signatures.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "dns/name.h"

namespace dnstime::dns {

enum class RrType : u16 {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kTxt = 16,
  kRrsig = 46,
};

struct ResourceRecord {
  DnsName name;
  RrType type = RrType::kA;
  u32 ttl = 0;

  // rdata, one of (by `type`):
  Ipv4Addr a;          ///< kA
  DnsName target;      ///< kNs / kCname
  std::string txt;     ///< kTxt (also used as padding in studies)
  RrType covered = RrType::kA;  ///< kRrsig: covered type
  u64 signature = 0;            ///< kRrsig: structural signature value

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) =
      default;
};

[[nodiscard]] inline ResourceRecord make_a(const DnsName& name, Ipv4Addr addr,
                                           u32 ttl) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RrType::kA;
  rr.ttl = ttl;
  rr.a = addr;
  return rr;
}

[[nodiscard]] inline ResourceRecord make_ns(const DnsName& name,
                                            const DnsName& target, u32 ttl) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RrType::kNs;
  rr.ttl = ttl;
  rr.target = target;
  return rr;
}

[[nodiscard]] inline ResourceRecord make_txt(const DnsName& name,
                                             std::string text, u32 ttl) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RrType::kTxt;
  rr.ttl = ttl;
  rr.txt = std::move(text);
  return rr;
}

/// Structural signature over an RRset: FNV-1a of the zone secret and the
/// rdata of every record in the set. Stands in for RRSIG crypto.
[[nodiscard]] u64 sign_rrset(u64 zone_secret, const DnsName& owner,
                             RrType type,
                             const std::vector<ResourceRecord>& rrset);

}  // namespace dnstime::dns
