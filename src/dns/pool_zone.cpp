#include "dns/pool_zone.h"

namespace dnstime::dns {

namespace {
/// A records per answer (§VI: "4 IP-addresses per DNS query").
constexpr std::size_t kAddressesPerResponse = 4;
/// TTL of the NS and glue records: delegations are long-lived.
constexpr u32 kNsTtl = 86400;
}  // namespace

const DnsName& pool_name() {
  static const DnsName name = DnsName::from_string(std::string(kPoolDomain));
  return name;
}

PoolZone::PoolZone(DnsName apex, std::vector<Ipv4Addr> servers, Config config)
    : apex_(std::move(apex)),
      servers_(std::move(servers)),
      config_(std::move(config)) {}

bool PoolZone::handle(const DnsQuestion& q, DnsMessage& response) {
  if (!q.name.is_subdomain_of(apex_)) return false;
  fill(q, response, rotation_);
  if (q.type == RrType::kA && !servers_.empty()) {
    rotation_ = (rotation_ + kAddressesPerResponse) % servers_.size();
  }
  return true;
}

DnsMessage PoolZone::peek_response(const DnsQuestion& q) const {
  DnsMessage response;
  response.qr = true;
  response.aa = true;
  response.questions = {q};
  fill(q, response, rotation_);
  return response;
}

void PoolZone::fill(const DnsQuestion& q, DnsMessage& response,
                    std::size_t rotation) const {
  // Answers: next 4 pool addresses, round-robin.
  if (q.type == RrType::kA && !servers_.empty()) {
    std::vector<ResourceRecord> answers;
    for (std::size_t i = 0; i < kAddressesPerResponse; ++i) {
      Ipv4Addr addr = servers_[(rotation + i) % servers_.size()];
      answers.push_back(make_a(q.name, addr, config_.a_ttl));
    }
    emit_rrset(response.answers, answers, /*dnssec_signed=*/false, 0);
  } else if (q.type == RrType::kNs) {
    std::vector<ResourceRecord> ns;
    for (const auto& [name, _] : config_.nameservers) {
      ns.push_back(make_ns(apex_, name, kNsTtl));
    }
    emit_rrset(response.answers, ns, false, 0);
  }

  // Optional TXT padding (response-size inflation).
  if (config_.pad_txt_bytes > 0) {
    response.answers.push_back(make_txt(
        q.name, std::string(config_.pad_txt_bytes, 'x'), config_.a_ttl));
  }

  // Authority: the zone's NS RRset; additional: glue. These form the tail
  // of the encoded message — the bytes a spoofed second fragment replaces.
  if (q.type != RrType::kNs) {
    std::vector<ResourceRecord> ns;
    for (const auto& [name, _] : config_.nameservers) {
      ns.push_back(make_ns(apex_, name, kNsTtl));
    }
    emit_rrset(response.authority, ns, false, 0);
  }
  std::vector<ResourceRecord> glue;
  for (const auto& [name, addr] : config_.nameservers) {
    glue.push_back(make_a(name, addr, kNsTtl));
  }
  response.additional.insert(response.additional.end(), glue.begin(),
                             glue.end());
}

}  // namespace dnstime::dns
