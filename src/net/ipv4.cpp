#include "net/ipv4.h"

#include "net/checksum.h"

namespace dnstime::net {

namespace {

void write_ipv4(ByteWriter& w, const Ipv4Packet& pkt) {
  w.write_u8(0x45);  // version 4, IHL 5 (no options)
  w.write_u8(0);     // DSCP/ECN
  w.write_u16(static_cast<u16>(pkt.total_length()));
  w.write_u16(pkt.id);
  u16 flags_frag = pkt.frag_offset_units & 0x1FFF;
  if (pkt.dont_fragment) flags_frag |= 0x4000;
  if (pkt.more_fragments) flags_frag |= 0x2000;
  w.write_u16(flags_frag);
  w.write_u8(pkt.ttl);
  w.write_u8(pkt.protocol);
  w.write_u16(0);  // checksum placeholder
  w.write_u32(pkt.src.value());
  w.write_u32(pkt.dst.value());
  u16 csum = internet_checksum(w.data().subspan(0, kIpv4HeaderSize));
  w.patch_u16(10, csum);
  w.write_bytes(pkt.payload);
}

}  // namespace

PacketBuf encode_buf(const Ipv4Packet& pkt) {
  ByteWriter w;
  write_ipv4(w, pkt);
  return std::move(w).take_buf();
}

Ipv4Packet decode_ipv4(std::span<const u8> data) {
  ByteReader r(data);
  u8 ver_ihl = r.read_u8();
  if ((ver_ihl >> 4) != 4) throw DecodeError("not IPv4");
  std::size_t header_len = std::size_t{static_cast<u8>(ver_ihl & 0x0F)} * 4;
  if (header_len < kIpv4HeaderSize) throw DecodeError("bad IHL");
  if (data.size() < header_len) throw DecodeError("truncated header");
  if (internet_checksum(data.subspan(0, header_len)) != 0) {
    throw DecodeError("bad IPv4 header checksum");
  }
  (void)r.read_u8();  // DSCP/ECN
  u16 total_len = r.read_u16();
  if (total_len < header_len || total_len > data.size()) {
    throw DecodeError("bad total length");
  }
  Ipv4Packet pkt;
  pkt.id = r.read_u16();
  u16 flags_frag = r.read_u16();
  pkt.dont_fragment = (flags_frag & 0x4000) != 0;
  pkt.more_fragments = (flags_frag & 0x2000) != 0;
  pkt.frag_offset_units = flags_frag & 0x1FFF;
  pkt.ttl = r.read_u8();
  pkt.protocol = r.read_u8();
  (void)r.read_u16();  // checksum, verified above
  pkt.src = Ipv4Addr{r.read_u32()};
  pkt.dst = Ipv4Addr{r.read_u32()};
  r.seek(header_len);
  pkt.payload =
      PacketBuf::copy_of(data.subspan(header_len, total_len - header_len));
  return pkt;
}

}  // namespace dnstime::net
