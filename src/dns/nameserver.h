// Authoritative DNS nameserver.
//
// Hosts one or more ZoneAuthority instances and answers UDP queries on
// port 53. Zone behaviour differences that matter to the paper — DNSSEC
// signing (only time.cloudflare.com among NTP domains), forced-fragment
// responses (the §VIII-B1 study nameserver), pool rotation — live in the
// ZoneAuthority implementations.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dns/message.h"
#include "net/netstack.h"

namespace dnstime::dns {

/// One authoritative zone. `handle` fills the response sections for a
/// question under this apex and returns false for NXDOMAIN.
class ZoneAuthority {
 public:
  virtual ~ZoneAuthority() = default;
  [[nodiscard]] virtual const DnsName& apex() const = 0;
  virtual bool handle(const DnsQuestion& q, DnsMessage& response) = 0;
};

/// Static RRset zone with optional structural DNSSEC signing.
class StaticZone : public ZoneAuthority {
 public:
  StaticZone(DnsName apex, bool dnssec_signed = false, u64 zone_secret = 0)
      : apex_(std::move(apex)),
        signed_(dnssec_signed),
        secret_(zone_secret) {}

  void add(const ResourceRecord& rr) { records_.push_back(rr); }
  void clear() { records_.clear(); }

  [[nodiscard]] const DnsName& apex() const override { return apex_; }
  [[nodiscard]] u64 secret() const { return secret_; }

  bool handle(const DnsQuestion& q, DnsMessage& response) override;

 private:
  DnsName apex_;
  bool signed_;
  u64 secret_;
  std::vector<ResourceRecord> records_;
};

struct NameserverConfig {
  /// If nonzero, always answer with fragments of this MTU (the
  /// purpose-built study nameserver; normal servers leave it 0 and
  /// fragment only per path MTU / PMTUD).
  u16 force_fragment_mtu = 0;
  /// Observation hook: invoked per received query with the querying
  /// address and the question name. Measurement nameservers use this to
  /// attribute token-domain lookups to resolvers (§VIII-B3).
  std::function<void(Ipv4Addr from, const DnsName& qname)> query_log;
};

class Nameserver {
 public:
  using Config = NameserverConfig;

  explicit Nameserver(net::NetStack& stack, Config config = Config{});
  ~Nameserver();

  Nameserver(const Nameserver&) = delete;
  Nameserver& operator=(const Nameserver&) = delete;

  void add_zone(std::shared_ptr<ZoneAuthority> zone) {
    zones_.push_back(std::move(zone));
  }

  [[nodiscard]] net::NetStack& stack() { return stack_; }

 private:
  void on_query(const net::UdpEndpoint& from, const PacketBuf& payload);

  net::NetStack& stack_;
  Config config_;
  std::vector<std::shared_ptr<ZoneAuthority>> zones_;
};

/// Append an RRset plus (when `zone_secret` != 0) its covering RRSIG to a
/// message section. Shared by StaticZone and PoolZone.
void emit_rrset(std::vector<ResourceRecord>& section,
                const std::vector<ResourceRecord>& rrset, bool dnssec_signed,
                u64 zone_secret);

}  // namespace dnstime::dns
