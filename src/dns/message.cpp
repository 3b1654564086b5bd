#include "dns/message.h"

namespace dnstime::dns {

namespace {

void write_record(ByteWriter& w, NameCompressor& comp,
                  const ResourceRecord& rr) {
  comp.write_name(w, rr.name);
  w.write_u16(static_cast<u16>(rr.type));
  w.write_u16(1);  // class IN
  w.write_u32(rr.ttl);
  std::size_t len_at = w.size();
  w.write_u16(0);  // rdlength placeholder
  std::size_t rdata_start = w.size();
  switch (rr.type) {
    case RrType::kA:
      w.write_u32(rr.a.value());
      break;
    case RrType::kNs:
    case RrType::kCname:
      // NOTE: rdata names are written uncompressed so an rdata span can be
      // rewritten in place without disturbing other records' pointers.
      {
        for (const auto& label : rr.target.labels()) {
          w.write_u8(static_cast<u8>(label.size()));
          w.write_string(label);
        }
        w.write_u8(0);
      }
      break;
    case RrType::kTxt: {
      // character-strings of <=255 bytes each
      std::size_t pos = 0;
      while (pos < rr.txt.size()) {
        std::size_t n = std::min<std::size_t>(255, rr.txt.size() - pos);
        w.write_u8(static_cast<u8>(n));
        w.write_string(rr.txt.substr(pos, n));
        pos += n;
      }
      if (rr.txt.empty()) w.write_u8(0);
      break;
    }
    case RrType::kRrsig:
      w.write_u16(static_cast<u16>(rr.covered));
      w.write_u64(rr.signature);
      break;
  }
  w.patch_u16(len_at, static_cast<u16>(w.size() - rdata_start));
}

ResourceRecord read_record(ByteReader& r, Section section, std::size_t index,
                           std::vector<RecordSpan>* spans) {
  ResourceRecord rr;
  rr.name = read_name(r);
  rr.type = static_cast<RrType>(r.read_u16());
  u16 klass = r.read_u16();
  if (klass != 1) throw DecodeError("unsupported class");
  std::size_t ttl_offset = r.pos();
  rr.ttl = r.read_u32();
  u16 rdlength = r.read_u16();
  std::size_t rdata_offset = r.pos();
  if (rdlength > r.remaining()) throw DecodeError("rdata overrun");
  switch (rr.type) {
    case RrType::kA:
      if (rdlength != 4) throw DecodeError("bad A rdlength");
      rr.a = Ipv4Addr{r.read_u32()};
      break;
    case RrType::kNs:
    case RrType::kCname:
      rr.target = read_name(r);
      break;
    case RrType::kTxt: {
      std::size_t end = rdata_offset + rdlength;
      while (r.pos() < end) {
        u8 n = r.read_u8();
        Bytes chunk = r.read_bytes(n);
        rr.txt.append(chunk.begin(), chunk.end());
      }
      break;
    }
    case RrType::kRrsig:
      rr.covered = static_cast<RrType>(r.read_u16());
      rr.signature = r.read_u64();
      break;
    default:
      r.skip(rdlength);
      break;
  }
  if (r.pos() != rdata_offset + rdlength) {
    r.seek(rdata_offset + rdlength);
  }
  if (spans) {
    spans->push_back(RecordSpan{section, index, rr.type, ttl_offset,
                                rdata_offset, rdlength});
  }
  return rr;
}

}  // namespace

namespace {

void write_dns(ByteWriter& w, const DnsMessage& msg) {
  NameCompressor comp;
  w.write_u16(msg.id);
  u16 flags = 0;
  if (msg.qr) flags |= 0x8000;
  if (msg.aa) flags |= 0x0400;
  if (msg.tc) flags |= 0x0200;
  if (msg.rd) flags |= 0x0100;
  if (msg.ra) flags |= 0x0080;
  if (msg.ad) flags |= 0x0020;
  flags |= static_cast<u16>(msg.rcode) & 0x000F;
  w.write_u16(flags);
  w.write_u16(static_cast<u16>(msg.questions.size()));
  w.write_u16(static_cast<u16>(msg.answers.size()));
  w.write_u16(static_cast<u16>(msg.authority.size()));
  w.write_u16(static_cast<u16>(msg.additional.size()));
  for (const auto& q : msg.questions) {
    comp.write_name(w, q.name);
    w.write_u16(static_cast<u16>(q.type));
    w.write_u16(1);  // class IN
  }
  for (const auto& rr : msg.answers) write_record(w, comp, rr);
  for (const auto& rr : msg.authority) write_record(w, comp, rr);
  for (const auto& rr : msg.additional) write_record(w, comp, rr);
}

}  // namespace

PacketBuf encode_dns_buf(const DnsMessage& msg) {
  ByteWriter w;
  write_dns(w, msg);
  return std::move(w).take_buf();
}

DnsMessage decode_dns(std::span<const u8> data,
                      std::vector<RecordSpan>* spans) {
  ByteReader r(data);
  DnsMessage msg;
  msg.id = r.read_u16();
  u16 flags = r.read_u16();
  msg.qr = flags & 0x8000;
  msg.aa = flags & 0x0400;
  msg.tc = flags & 0x0200;
  msg.rd = flags & 0x0100;
  msg.ra = flags & 0x0080;
  msg.ad = flags & 0x0020;
  msg.rcode = static_cast<Rcode>(flags & 0x000F);
  u16 qd = r.read_u16();
  u16 an = r.read_u16();
  u16 ns = r.read_u16();
  u16 ar = r.read_u16();
  for (u16 i = 0; i < qd; ++i) {
    DnsQuestion q;
    q.name = read_name(r);
    q.type = static_cast<RrType>(r.read_u16());
    if (r.read_u16() != 1) throw DecodeError("unsupported class");
    msg.questions.push_back(std::move(q));
  }
  for (u16 i = 0; i < an; ++i) {
    msg.answers.push_back(read_record(r, Section::kAnswer, i, spans));
  }
  for (u16 i = 0; i < ns; ++i) {
    msg.authority.push_back(read_record(r, Section::kAuthority, i, spans));
  }
  for (u16 i = 0; i < ar; ++i) {
    msg.additional.push_back(read_record(r, Section::kAdditional, i, spans));
  }
  return msg;
}

u64 sign_rrset(u64 zone_secret, const DnsName& owner, RrType type,
               const std::vector<ResourceRecord>& rrset) {
  // FNV-1a over the zone secret, owner, type and each record's rdata.
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  auto mix_str = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  mix(zone_secret);
  mix_str(owner.to_string());
  mix(static_cast<u64>(type));
  for (const auto& rr : rrset) {
    // TTLs are deliberately not covered (mirrors DNSSEC, which signs the
    // original TTL separately); rdata is what integrity protects.
    mix(rr.a.value());
    mix_str(rr.target.to_string());
    mix_str(rr.txt);
  }
  return h;
}

}  // namespace dnstime::dns
