// NTP rate-limit abuse (§IV-B2): spoofed mode-3 floods that make a server
// rate-limit the *victim*, so the victim's genuine polls go unanswered and
// the association looks dead — without any denial of service against the
// server itself.
//
// The forged datagram never changes for a given server, so it is built and
// checksummed once per target, in disrupt(); every flood tick sends a copy
// that shares the pooled bytes and carries its own provenance stamp.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/netstack.h"

namespace dnstime::attack {

class RateLimitAbuser {
 public:
  RateLimitAbuser(net::NetStack& attacker, Ipv4Addr victim);
  ~RateLimitAbuser();

  RateLimitAbuser(const RateLimitAbuser&) = delete;
  RateLimitAbuser& operator=(const RateLimitAbuser&) = delete;

  /// Start/extend the spoofed stream against `server`. Idempotent.
  void disrupt(Ipv4Addr server);
  void disrupt_all(const std::vector<Ipv4Addr>& servers);
  /// Stop flooding every server.
  void stop();

  [[nodiscard]] u64 packets_spoofed() const { return spoofed_; }
  [[nodiscard]] std::size_t active_targets() const { return targets_.size(); }

 private:
  struct Target {
    net::Ipv4Packet forged;  ///< victim -> server mode-3 query, sent as is
    sim::EventHandle tick;
  };

  void flood_tick(Ipv4Addr server);

  net::NetStack& stack_;
  Ipv4Addr victim_;
  std::unordered_map<Ipv4Addr, Target> targets_;
  u64 spoofed_ = 0;
};

}  // namespace dnstime::attack
