// libFuzzer harness: whole IPv4 packets, payloads and fragments included.
//
// Every packet a simulated host receives arrives as an IPv4 packet, and the
// attack forges all of its own: spoofed mode-3 floods (§IV-B2), the ICMP
// frag-needed that lowers a nameserver's path MTU (§III-1) and the spoofed
// second fragment that poisons a reassembled DNS response (§III-3).
//
// decode_ipv4 must return or throw DecodeError; any other escape is a
// finding. An accepted packet p is a fixed point of the codec:
// decode_ipv4(encode_buf(p)) equals p field by field, payload bytes
// included (options and the reserved flag bit are not modelled, so the
// bytes themselves need not round-trip).
#include <cstdint>
#include <cstdlib>

#include "net/ipv4.h"

namespace {

using dnstime::net::Ipv4Packet;

bool same_fields(const Ipv4Packet& a, const Ipv4Packet& b) {
  return a.src == b.src && a.dst == b.dst && a.id == b.id &&
         a.dont_fragment == b.dont_fragment &&
         a.more_fragments == b.more_fragments &&
         a.frag_offset_units == b.frag_offset_units && a.ttl == b.ttl &&
         a.protocol == b.protocol && a.payload == b.payload;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  Ipv4Packet pkt;
  try {
    pkt = net::decode_ipv4({data, size});
  } catch (const DecodeError&) {
    return 0;
  }
  if (!same_fields(net::decode_ipv4(net::encode_buf(pkt)), pkt)) std::abort();
  return 0;
}
