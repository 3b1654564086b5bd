// libFuzzer harness: ICMP "fragmentation needed" (type 3 code 4) parsing.
//
// This is the first packet of the paper's attack chain (§III-1): an
// off-path attacker forges it so a nameserver lowers its path MTU to the
// victim resolver, which means the nameserver parses bytes the attacker
// chose. decode_icmp_frag_needed also parses the quoted original IPv4
// header through decode_ipv4, so one harness reaches both decoders.
//
// decode must return or throw DecodeError; any other escape is a finding.
// A decoded message is a fixed point of the codec: re-encoding it must
// decode again (canonical bytes never throw), to the same value —
// decode(encode(decode(x))) == decode(x).
#include <cstdint>
#include <cstdlib>

#include "net/icmp.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  net::IcmpFragNeeded msg;
  try {
    msg = net::decode_icmp_frag_needed({data, size});
  } catch (const DecodeError&) {
    return 0;
  }
  const Bytes wire = net::encode_icmp_frag_needed(msg);
  if (net::decode_icmp_frag_needed(wire) != msg) std::abort();
  return 0;
}
