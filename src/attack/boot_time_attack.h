// Boot-time attack orchestrator (§IV-A, Fig. 2).
//
// Keeps the resolver's defragmentation cache primed (CachePoisoner),
// optionally triggers the resolver's upstream query through an open
// resolver or a co-located SMTP host, and reports success as soon as the
// poisoned records are observable in the cache. A victim NTP client that
// boots after that point takes all its servers from the attacker.
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
  enum class Trigger { kNone, kOpenResolver, kSmtp };
  Trigger trigger = Trigger::kNone;
  Ipv4Addr smtp_host;  ///< for Trigger::kSmtp
  sim::Duration deadline = sim::Duration::minutes(60);
};

class BootTimeAttack {
 public:
  BootTimeAttack(net::NetStack& attacker, BootTimeConfig config);

  /// Override the success detection (used when the victim resolver is not
  /// open, so RD=0 probing from outside is impossible — the lab/scenario
  /// checks the victim's state directly).
  void set_success_check(std::function<bool()> check) {
    success_check_ = std::move(check);
  }

  void run(std::function<void(const AttackOutcome&)> done);
  void stop();

  [[nodiscard]] CachePoisoner& poisoner() { return poisoner_; }

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
