// Boot-time attack orchestrator (§IV-A, Fig. 2).
//
// Keeps the resolver's defragmentation cache primed (CachePoisoner),
// triggers the resolver's upstream query through an open resolver or a
// co-located SMTP host, and reports success as soon as the injected
// success check sees the poisoned records in the cache. A victim NTP
// client that boots after that point takes all its servers from the
// attacker.
#pragma once

#include "attack/cache_poisoner.h"
#include "attack/query_trigger.h"

namespace dnstime::attack {

struct AttackOutcome {
  bool success = false;
  sim::Time at;                ///< when success was detected
  u64 fragments_planted = 0;
  u64 replant_rounds = 0;
};

struct BootTimeConfig {
  PoisonerConfig poison;
  enum class Trigger { kOpenResolver, kSmtp };
  Trigger trigger = Trigger::kOpenResolver;
  Ipv4Addr smtp_host;  ///< for Trigger::kSmtp
  sim::Duration deadline = sim::Duration::minutes(60);
};

class BootTimeAttack {
 public:
  BootTimeAttack(net::NetStack& attacker, BootTimeConfig config);

  /// `success_check` is polled every 10 s of simulated time; the lab or
  /// scenario checks the victim resolver's cache directly.
  void run(std::function<bool()> success_check,
           std::function<void(const AttackOutcome&)> done);
  void stop();

 private:
  void tick();
  void fire_trigger();
  void finish(bool success);

  net::NetStack& stack_;
  BootTimeConfig config_;
  CachePoisoner poisoner_;
  std::function<bool()> success_check_;
  std::function<void(const AttackOutcome&)> done_;
  sim::Time started_;
  bool finished_ = false;
};

}  // namespace dnstime::attack
