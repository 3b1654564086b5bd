// libFuzzer harness: UDP datagram decoding with its RFC 768 checksum.
//
// Every datagram a simulated host receives passes this decoder, including
// the spoofed mode-3 flood of the run-time attack (§IV-B2) and the
// reassembled DNS responses whose forged fragment must be checksum
// compensated (§III-3). The first 8 input bytes are the pseudo-header's
// source and destination addresses (big-endian); the rest is the datagram.
//
// decode must return or throw DecodeError; any other escape is a finding.
// An accepted datagram with a non-zero checksum re-encodes byte-exactly to
// its first `length` bytes — the checksum it carries is the only non-zero
// one that verifies. A zero checksum means "none sent" and is exempt.
#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "net/udp.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  if (size < 8) return 0;
  auto addr_at = [&](std::size_t i) {
    return Ipv4Addr{data[i], data[i + 1], data[i + 2], data[i + 3]};
  };
  const Ipv4Addr src = addr_at(0);
  const Ipv4Addr dst = addr_at(4);
  const std::span<const u8> wire{data + 8, size - 8};

  net::UdpDatagram dgram;
  try {
    dgram = net::decode_udp_buf(PacketBuf::copy_of(wire), src, dst);
  } catch (const DecodeError&) {
    return 0;
  }

  const u16 wire_csum = static_cast<u16>((wire[6] << 8) | wire[7]);
  if (wire_csum == 0) return 0;
  const PacketBuf again = net::encode_udp_buf(dgram.payload, dgram.src_port,
                                              dgram.dst_port, src, dst);
  if (again.size() > wire.size() ||
      !std::equal(again.begin(), again.end(), wire.begin())) {
    std::abort();
  }
  return 0;
}
