// NTP rate-limit abuse (§IV-B2): spoofed mode-3 floods that make a server
// rate-limit the *victim*, so the victim's genuine polls go unanswered and
// the association looks dead — without any denial of service against the
// server itself.
//
// The forged datagram never changes for a given server, so it is built and
// checksummed once per target, in disrupt_all(); every flood round sends a
// copy that shares the pooled bytes and carries its own provenance stamp.
//
// One disrupt_all() call starts one stream: its new targets in list order
// and one timer, so each 400 ms round is one event that sends the whole
// stream and re-arms once. This is exact. One timer per server, armed back
// to back by one call, would fire back to back at every round instant with
// no other event between them, sending, stamping and scheduling deliveries
// in list order just as one stream round does. The condition is that no
// flood delivery lands on a tick instant: with per-server timers it would
// fire between two of them, but after a whole stream round. World links
// are 10 ms with no jitter, so it holds. Separate calls stay separate
// streams, even at the same instant, because other events may have been
// armed between them.
#pragma once

#include <vector>

#include "net/netstack.h"

namespace dnstime::attack {

class RateLimitAbuser {
 public:
  RateLimitAbuser(net::NetStack& attacker, Ipv4Addr victim);
  ~RateLimitAbuser();

  RateLimitAbuser(const RateLimitAbuser&) = delete;
  RateLimitAbuser& operator=(const RateLimitAbuser&) = delete;

  /// Start the spoofed stream against `server`. Idempotent.
  void disrupt(Ipv4Addr server) { disrupt_all({server}); }
  /// Start one stream against the servers not flooded yet, in list order.
  void disrupt_all(const std::vector<Ipv4Addr>& servers);
  /// Stop flooding every server.
  void stop();

  [[nodiscard]] u64 packets_spoofed() const { return spoofed_; }
  [[nodiscard]] std::size_t active_targets() const;

 private:
  struct Stream {
    std::vector<net::Ipv4Packet> forged;  ///< victim -> server mode-3 queries
    sim::EventHandle tick;
  };

  [[nodiscard]] bool flooded(Ipv4Addr server) const;
  void send_round(std::size_t stream);

  net::NetStack& stack_;
  Ipv4Addr victim_;
  std::vector<Stream> streams_;
  u64 spoofed_ = 0;
};

}  // namespace dnstime::attack
