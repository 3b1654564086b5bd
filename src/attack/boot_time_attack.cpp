#include "attack/boot_time_attack.h"

#include "dns/pool_zone.h"
#include "obs/trace.h"

namespace dnstime::attack {

namespace {
/// The pool A TTL is 150 s, so a fresh upstream query can be forced at
/// most that often.
constexpr sim::Duration kTriggerInterval = sim::Duration::seconds(150);
/// Cadence of the success check.
constexpr sim::Duration kCheckInterval = sim::Duration::seconds(10);
}  // namespace

BootTimeAttack::BootTimeAttack(net::NetStack& attacker, BootTimeConfig config)
    : stack_(attacker),
      config_(std::move(config)),
      poisoner_(attacker, config_.poison) {}

void BootTimeAttack::run(std::function<bool()> success_check,
                         std::function<void(const AttackOutcome&)> done) {
  success_check_ = std::move(success_check);
  done_ = std::move(done);
  started_ = stack_.now();
  DNSTIME_TRACE_BEGIN(started_.ns(), "attack", "poison");
  poisoner_.start();
  // Give the first spray a moment to arm before forcing the query.
  stack_.loop().schedule_after(sim::Duration::seconds(5),
                               [this] { fire_trigger(); });
  stack_.loop().schedule_after(kCheckInterval, [this] { tick(); });
}

void BootTimeAttack::stop() {
  finished_ = true;
  poisoner_.stop();
}

void BootTimeAttack::fire_trigger() {
  if (finished_) return;
  switch (config_.trigger) {
    case BootTimeConfig::Trigger::kOpenResolver:
      QueryTrigger::via_open_resolver(stack_, config_.poison.resolver_addr,
                                      dns::pool_name());
      break;
    case BootTimeConfig::Trigger::kSmtp:
      QueryTrigger::via_smtp(stack_, config_.smtp_host,
                             dns::pool_name());
      break;
  }
  stack_.loop().schedule_after(kTriggerInterval,
                               [this] { fire_trigger(); });
}

void BootTimeAttack::tick() {
  if (finished_) return;
  if (stack_.now() - started_ > config_.deadline) {
    finish(false);
    return;
  }
  if (success_check_()) {
    finish(true);
  } else {
    stack_.loop().schedule_after(kCheckInterval, [this] { tick(); });
  }
}

void BootTimeAttack::finish(bool success) {
  if (finished_) return;
  finished_ = true;
  DNSTIME_TRACE_END(stack_.now().ns(), "attack", "poison");
  poisoner_.stop();
  AttackOutcome outcome;
  outcome.success = success;
  outcome.at = stack_.now();
  outcome.fragments_planted = poisoner_.fragments_planted();
  outcome.replant_rounds = poisoner_.replant_rounds();
  if (done_) done_(outcome);
}

}  // namespace dnstime::attack
