// The pool.ntp.org zone model.
//
// Reproduces the behaviours the paper's attacks and measurements rely on:
//  * every A query returns 4 addresses drawn round-robin from the pool
//    (§VI: "the nameservers of pool.ntp.org normally give 4 IP-addresses
//    per DNS query");
//  * the A TTL is 150 seconds (§IV-A), bounding how often a resolver
//    re-queries;
//  * country zones <cc>.pool.ntp.org and the numbered 0..3.pool.ntp.org
//    subzones serve from the same pool;
//  * responses carry the zone's NS RRset and glue A records — the tail of
//    the response, which is what a spoofed second fragment overwrites;
//  * the zone is NOT DNSSEC signed (§VII-B: none of the 30 pool
//    nameservers supports DNSSEC).
#pragma once

#include <string_view>
#include <vector>

#include "dns/nameserver.h"

namespace dnstime::dns {

/// The NTP pool's domain. The client models, the population fleet, Chronos,
/// the attacks and the World's zones all use this one name.
inline constexpr std::string_view kPoolDomain = "pool.ntp.org";
/// kPoolDomain as a DnsName.
[[nodiscard]] const DnsName& pool_name();

class PoolZone : public ZoneAuthority {
 public:
  struct Config {
    u32 a_ttl = 150;       ///< paper §IV-A: TTL of pool A records
    /// Names + glue of the zone's nameservers; the glue A records land at
    /// the very end of the response (the poisoning target).
    std::vector<std::pair<DnsName, Ipv4Addr>> nameservers;
    /// Extra TXT padding appended before the authority section to push the
    /// delegation tail across the attacker-induced fragment boundary
    /// (stands in for the paper's "long sub-domain" inflation trick).
    std::size_t pad_txt_bytes = 0;
  };

  PoolZone(DnsName apex, std::vector<Ipv4Addr> servers, Config config);

  [[nodiscard]] const DnsName& apex() const override { return apex_; }
  bool handle(const DnsQuestion& q, DnsMessage& response) override;

  /// Rotation position (exposed so an attacker that queried the zone can
  /// predict the next response — or tests can pin it).
  [[nodiscard]] std::size_t rotation() const { return rotation_; }
  void set_rotation(std::size_t r) { rotation_ = r % servers_.size(); }

  [[nodiscard]] const std::vector<Ipv4Addr>& servers() const {
    return servers_;
  }

  /// Build the response that the *next* query for `q` will receive,
  /// without advancing rotation. The attack's fragment crafter uses this
  /// through an attacker-issued probe query.
  [[nodiscard]] DnsMessage peek_response(const DnsQuestion& q) const;

 private:
  void fill(const DnsQuestion& q, DnsMessage& response,
            std::size_t rotation) const;

  DnsName apex_;
  std::vector<Ipv4Addr> servers_;
  Config config_;
  std::size_t rotation_ = 0;
};

}  // namespace dnstime::dns
