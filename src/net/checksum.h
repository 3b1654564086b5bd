// RFC 1071 Internet checksum (ones' complement arithmetic).
//
// These routines are the substrate of the paper's §III-3 attack step: the
// off-path attacker must craft a replacement second fragment whose ones'
// complement sum equals that of the original, so the UDP checksum carried
// in the (unmodifiable) first fragment still verifies after reassembly.
#pragma once

#include <span>

#include "common/types.h"

namespace dnstime::net {

/// Ones' complement sum of 16-bit big-endian words (odd trailing byte is
/// padded with zero), folded to 16 bits. This is `sum1` in the paper's
/// notation; the Internet checksum is its complement.
///
/// Word-at-a-time: accumulates 8 bytes per iteration in a 64-bit ones'
/// complement register (RFC 1071 §2(B): the sum is byte-order independent
/// up to a final byte swap), with 16-bit/odd-byte tail handling.
[[nodiscard]] u16 ones_complement_sum(std::span<const u8> data);

/// Reference byte-pair implementation, kept as the test oracle for the
/// word-at-a-time version.
[[nodiscard]] u16 ones_complement_sum_scalar(std::span<const u8> data);

/// Combine two folded partial sums (ones' complement addition).
[[nodiscard]] u16 ones_complement_add(u16 a, u16 b);

/// 16-bit ones' complement subtraction a - b.
[[nodiscard]] u16 ones_complement_sub(u16 a, u16 b);

/// Final Internet checksum over a buffer: ~sum1(data). A result of 0x0000
/// is transmitted as 0xFFFF in UDP (0 means "no checksum").
[[nodiscard]] u16 internet_checksum(std::span<const u8> data);

/// IPv4/UDP pseudo-header sum used by the UDP checksum.
[[nodiscard]] u16 pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst, u8 protocol,
                                    u16 length);

}  // namespace dnstime::net
