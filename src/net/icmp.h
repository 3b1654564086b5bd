// ICMP "Destination Unreachable / Fragmentation Needed" (type 3 code 4).
//
// This is the message the attacker forges in §III-1 to trick a nameserver
// into fragmenting its DNS responses: the nameserver trusts the (spoofable)
// ICMP error, registers the advertised next-hop MTU for the embedded
// packet's destination, and subsequently emits fragmented responses.
#pragma once

#include "common/bytes.h"
#include "common/types.h"
#include "net/ipv4.h"

namespace dnstime::net {

inline constexpr u8 kIcmpDestUnreachable = 3;
inline constexpr u8 kIcmpCodeFragNeeded = 4;

struct IcmpFragNeeded {
  u16 mtu = 0;
  /// Embedded original IP header + first 8 payload bytes (RFC 792). The
  /// receiving host uses `orig_src`/`orig_dst` to find whose path MTU to
  /// update; a spoofed message only works if `orig_src` matches the victim
  /// host's own address.
  Ipv4Addr orig_src;
  Ipv4Addr orig_dst;
  u8 orig_protocol = kProtoUdp;

  friend bool operator==(const IcmpFragNeeded&,
                         const IcmpFragNeeded&) = default;
};

/// Encode a full ICMP message (type/code/checksum + MTU + embedded header).
[[nodiscard]] Bytes encode_icmp_frag_needed(const IcmpFragNeeded& msg);

/// Decode; throws DecodeError for anything but a well-formed type-3/code-4.
[[nodiscard]] IcmpFragNeeded decode_icmp_frag_needed(std::span<const u8> data);

/// Convenience: build the complete spoofed IP packet an attacker sends to
/// `target` claiming that packets from `orig_src` to `orig_dst` require
/// fragmentation to `mtu`. The IP source is the pretend router address.
[[nodiscard]] Ipv4Packet make_frag_needed_packet(Ipv4Addr router,
                                                 Ipv4Addr target,
                                                 Ipv4Addr orig_src,
                                                 Ipv4Addr orig_dst, u16 mtu);

}  // namespace dnstime::net
