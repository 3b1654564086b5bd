#include "dns/nameserver.h"

#include <map>

#include "common/log.h"

namespace dnstime::dns {

void emit_rrset(std::vector<ResourceRecord>& section,
                const std::vector<ResourceRecord>& rrset, bool dnssec_signed,
                u64 zone_secret) {
  if (rrset.empty()) return;
  section.insert(section.end(), rrset.begin(), rrset.end());
  if (dnssec_signed) {
    ResourceRecord sig;
    sig.name = rrset.front().name;
    sig.type = RrType::kRrsig;
    sig.ttl = rrset.front().ttl;
    sig.covered = rrset.front().type;
    sig.signature =
        sign_rrset(zone_secret, rrset.front().name, rrset.front().type, rrset);
    section.push_back(std::move(sig));
  }
}

bool StaticZone::handle(const DnsQuestion& q, DnsMessage& response) {
  std::vector<ResourceRecord> match;
  bool name_exists = false;
  for (const auto& rr : records_) {
    if (rr.name == q.name) {
      name_exists = true;
      if (rr.type == q.type) match.push_back(rr);
    }
  }
  if (!match.empty()) {
    emit_rrset(response.answers, match, signed_, secret_);
    return true;
  }
  return name_exists;  // empty NOERROR vs NXDOMAIN
}

Nameserver::Nameserver(net::NetStack& stack, Config config)
    : stack_(stack), config_(config) {
  stack_.bind_udp(kDnsPort, [this](const net::UdpEndpoint& from, u16,
                                   BufView payload) {
    on_query(from, payload);
  });
}

Nameserver::~Nameserver() { stack_.unbind_udp(kDnsPort); }

void Nameserver::on_query(const net::UdpEndpoint& from,
                          BufView payload) {
  DnsMessage query;
  try {
    query = decode_dns(payload);
  } catch (const DecodeError&) {
    return;
  }
  if (query.qr || query.questions.size() != 1) return;
  if (config_.query_log) {
    config_.query_log(from.addr, query.questions.front().name);
  }

  DnsMessage response;
  response.id = query.id;
  response.qr = true;
  response.aa = true;
  response.rd = query.rd;
  response.questions = query.questions;

  const DnsQuestion& q = query.questions.front();
  ZoneAuthority* best = nullptr;
  for (const auto& zone : zones_) {
    if (q.name.is_subdomain_of(zone->apex())) {
      if (!best || zone->apex().label_count() > best->apex().label_count()) {
        best = zone.get();
      }
    }
  }
  if (!best) {
    response.rcode = Rcode::kRefused;
  } else if (!best->handle(q, response)) {
    response.rcode = Rcode::kNxDomain;
  }

  PacketBuf wire = encode_dns_buf(response);
  if (config_.force_fragment_mtu != 0) {
    stack_.send_udp_fragmented(from.addr, kDnsPort, from.port,
                               std::move(wire), config_.force_fragment_mtu);
  } else {
    stack_.send_udp(from.addr, kDnsPort, from.port, std::move(wire));
  }
}

}  // namespace dnstime::dns
