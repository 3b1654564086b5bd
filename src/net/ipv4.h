// IPv4 packet model and wire codec.
//
// Packets travel through the simulated Network as structured values for
// speed, but the codec produces real RFC 791 headers (with header checksum)
// so tests and the attack primitives can operate on actual bytes.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/types.h"

namespace dnstime::net {

inline constexpr u8 kProtoIcmp = 1;
inline constexpr u8 kProtoUdp = 17;

inline constexpr std::size_t kIpv4HeaderSize = 20;
/// RFC 791 minimum MTU every host must accept; the paper's predecessor
/// attack [Malhotra-Goldberg] needed servers to fragment to this.
inline constexpr u16 kMinimumMtu = 68;
inline constexpr u16 kEthernetMtu = 1500;

/// One IPv4 packet or fragment. `payload` holds the transport-layer bytes
/// carried by *this fragment* (for offset > 0 that is a slice of the
/// original datagram, not a valid transport header).
///
/// The payload is a pooled, reference-counted PacketBuf: copying a packet
/// aliases its bytes (fragments are literal slices of the parent datagram's
/// buffer) and mutation copies-on-write, so wire crafting code can edit a
/// copy without disturbing in-flight aliases.
struct Ipv4Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  u16 id = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  u16 frag_offset_units = 0;  ///< offset in 8-byte units, as on the wire
  u8 ttl = 64;
  u8 protocol = kProtoUdp;
  PacketBuf payload;

  [[nodiscard]] bool is_fragment() const {
    return more_fragments || frag_offset_units != 0;
  }
  [[nodiscard]] std::size_t frag_offset_bytes() const {
    return std::size_t{frag_offset_units} * 8;
  }
  [[nodiscard]] std::size_t total_length() const {
    return kIpv4HeaderSize + payload.size();
  }
};

/// Encode to wire bytes, computing the header checksum.
[[nodiscard]] PacketBuf encode_buf(const Ipv4Packet& pkt);

/// Decode from wire bytes; throws DecodeError on malformed input or a bad
/// header checksum.
[[nodiscard]] Ipv4Packet decode_ipv4(std::span<const u8> data);

}  // namespace dnstime::net
