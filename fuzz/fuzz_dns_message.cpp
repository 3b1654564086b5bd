// libFuzzer harness: dns::message decode on arbitrary bytes.
//
// The decoder is the attack surface the paper's crafted responses hit, so
// the contract under fuzzing is strict:
//   * decode_dns on any input either returns or throws DecodeError — any
//     other escape (sanitizer report, std::bad_alloc from an amplification
//     bug, another exception type) is a finding;
//   * every RecordSpan the decoder reports must lie inside the input (the
//     fragment crafter rewrites bytes at those offsets);
//   * encode preserves meaning on decoded messages — decode(encode(m)) == m
//     — and is idempotent: encode(decode(encode(m))) == encode(m).
//     Exceptions from encode or the second decode propagate and crash the
//     harness on purpose.
#include <cstdint>
#include <cstdlib>

#include "dns/message.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  std::vector<dns::RecordSpan> spans;
  dns::DnsMessage msg;
  try {
    msg = dns::decode_dns({data, size}, &spans);
  } catch (const DecodeError&) {
    return 0;
  }
  for (const auto& s : spans) {
    if (s.ttl_offset + 4 > size || s.rdata_offset + s.rdata_length > size ||
        s.rdata_offset + s.rdata_length < s.rdata_offset) {
      std::abort();  // span escapes the input buffer
    }
  }
  const PacketBuf first = dns::encode_dns_buf(msg);
  dns::DnsMessage reparsed = dns::decode_dns(first);
  if (!(reparsed == msg)) std::abort();  // encode corrupted the message
  const PacketBuf second = dns::encode_dns_buf(reparsed);
  if (first != second) std::abort();  // encoder not idempotent
  return 0;
}
