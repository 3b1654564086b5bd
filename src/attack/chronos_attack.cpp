#include "attack/chronos_attack.h"

#include "dns/pool_zone.h"
#include "obs/trace.h"

namespace dnstime::attack {


ChronosAttack::ChronosAttack(net::NetStack& attacker,
                             ChronosAttackConfig config)
    : stack_(attacker), config_(std::move(config)) {}

bool ChronosAttack::attacker_wins(int honest_rounds,
                                  std::size_t malicious_count) {
  // Pool after the poisoning freezes: 4N honest + malicious_count ours.
  double honest = 4.0 * honest_rounds;
  double total = honest + static_cast<double>(malicious_count);
  return static_cast<double>(malicious_count) >= (2.0 / 3.0) * total;
}

int ChronosAttack::max_tolerable_honest_rounds(std::size_t malicious_count) {
  int n = -1;
  while (attacker_wins(n + 1, malicious_count)) n++;
  return n;
}

void ChronosAttack::inject_whitebox(dns::Resolver& resolver) const {
  // > 24 h, so the cache outlives the pool-generation window.
  constexpr u32 kRecordTtl = 25 * 3600;
  DNSTIME_TRACE_INSTANT(stack_.now().ns(), "attack", "poison-injected",
                        static_cast<u64>(config_.malicious_ntp.size()));
  std::vector<dns::ResourceRecord> rrset;
  rrset.reserve(config_.malicious_ntp.size());
  for (Ipv4Addr addr : config_.malicious_ntp) {
    rrset.push_back(dns::make_a(dns::pool_name(), addr, kRecordTtl));
  }
  resolver.cache().insert(dns::pool_name(), dns::RrType::kA,
                          std::move(rrset), stack_.now());
}

}  // namespace dnstime::attack
