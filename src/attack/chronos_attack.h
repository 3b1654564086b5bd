// DNS poisoning attack against Chronos pool generation (§VI-C, Fig. 4).
//
// One successful poisoning during the 24-hour pool-generation window
// plants a pool.ntp.org A RRset with up to 89 attacker addresses and a TTL
// longer than 24 h. Every later hourly query is answered from cache, so
// the pool freezes at (4N honest + 89 malicious) where N is the number of
// honest rounds completed before the poisoning. The attacker needs >= 2/3
// of the pool:  2/3 * (89 + 4N) <= 89  =>  N <= 11 — twelve chances in 24
// hours.
#pragma once

#include "attack/cache_poisoner.h"
#include "dns/resolver.h"

namespace dnstime::attack {

struct ChronosAttackConfig {
  Ipv4Addr resolver_addr;
  /// Attacker NTP servers to flood the pool with; 89 is the maximum that
  /// fits one unfragmented UDP response.
  std::vector<Ipv4Addr> malicious_ntp;
};

class ChronosAttack {
 public:
  ChronosAttack(net::NetStack& attacker, ChronosAttackConfig config);

  /// Closed-form §VI-C success predicate: does injecting
  /// `malicious_count` addresses after `honest_rounds` completed honest
  /// queries (4 addresses each) give the attacker >= 2/3 of the pool?
  [[nodiscard]] static bool attacker_wins(int honest_rounds,
                                          std::size_t malicious_count = 89);
  /// Largest N for which the attack still succeeds (the paper's N <= 11).
  [[nodiscard]] static int max_tolerable_honest_rounds(
      std::size_t malicious_count = 89);

  /// Lab-variant injection used by the evaluation scenarios: place the
  /// malicious RRset directly into a resolver's cache (stands in for a
  /// completed fragmentation poisoning; the full off-path pipeline is
  /// exercised by CachePoisoner/BootTimeAttack).
  void inject_whitebox(dns::Resolver& resolver) const;

  [[nodiscard]] const ChronosAttackConfig& config() const { return config_; }
  [[nodiscard]] net::NetStack& stack() { return stack_; }

 private:
  net::NetStack& stack_;
  ChronosAttackConfig config_;
};

}  // namespace dnstime::attack
