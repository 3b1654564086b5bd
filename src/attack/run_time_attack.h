// Run-time attack orchestrator (§IV-B, Fig. 3; Table II scenarios).
//
// Removes the victim NTP client's existing associations by abusing
// server-side rate limiting, with three upstream-discovery strategies:
//   kKnownList (Scenario P1)   — flood every address the attacker
//                                enumerated from the pool zone;
//   kRefidLeak (Scenario P2)   — learn upstreams one at a time from the
//                                refid of the victim's own mode-4
//                                responses (client-as-server leak);
//   kConfigInterface           — read the full peer list from an exposed
//                                mode-6 configuration interface.
// Success (the victim's clock carries the attacker's shift) is detected
// via the injected success check, since an off-path attacker cannot read
// the victim clock — the check stands in for the attacker observing e.g.
// an expired TLS handshake on the victim.
#pragma once

#include "attack/ratelimit_abuser.h"
#include "attack/boot_time_attack.h"

namespace dnstime::attack {

struct RunTimeConfig {
  enum class Discovery { kKnownList, kRefidLeak, kConfigInterface };
  Discovery discovery = Discovery::kKnownList;
  /// P1: the enumerated candidate upstream list (2000-3000 addresses for
  /// pool.ntp.org per §IV-B2a).
  std::vector<Ipv4Addr> known_servers;
  /// The victim NTP client host (spoof source for floods; refid queries).
  Ipv4Addr victim;
  sim::Duration deadline = sim::Duration::hours(4);
};

class RunTimeAttack {
 public:
  RunTimeAttack(net::NetStack& attacker, RunTimeConfig config);

  /// `success_check` is polled every 30 s of simulated time.
  void run(std::function<bool()> success_check,
           std::function<void(const AttackOutcome&)> done);
  void stop();

  [[nodiscard]] const std::vector<Ipv4Addr>& discovered() const {
    return discovered_;
  }

 private:
  void discover();
  void query_refid();
  void query_config();
  void note_upstream(Ipv4Addr addr);
  void tick();
  void finish(bool success);

  net::NetStack& stack_;
  RunTimeConfig config_;
  RateLimitAbuser abuser_;
  std::vector<Ipv4Addr> discovered_;
  std::function<bool()> success_check_;
  std::function<void(const AttackOutcome&)> done_;
  sim::Time started_;
  bool finished_ = false;
};

}  // namespace dnstime::attack
