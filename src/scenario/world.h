// Canonical experiment topology, shared by tests, examples and benches.
//
// One World = one simulated internet containing:
//   * the pool.ntp.org authoritative nameserver (PoolZone: rotating 4
//     answers, TTL 150 s, NS + glue tail, optional DNSSEC absence — §VII-B);
//   * a configurable fleet of pool NTP servers (a fraction rate-limits,
//     per the §VII-A scan);
//   * the victim's recursive resolver (fragment acceptance / DNSSEC
//     validation per study knobs);
//   * the attacker: one off-path host, its own nameserver (which serves
//     pool.ntp.org after the delegation hijack) and shifted-time NTP
//     servers.
// Victim client hosts are added on demand.
#pragma once

#include <memory>

#include "attack/cache_poisoner.h"
#include "dns/nameserver.h"
#include "dns/pool_zone.h"
#include "dns/resolver.h"
#include "ntp/server.h"

namespace dnstime::scenario {

struct WorldConfig {
  u64 seed = 1;
  /// Pool servers behind pool.ntp.org.
  std::size_t pool_size = 16;
  /// Fraction of pool servers that enable rate limiting (§VII-A: 38%).
  double rate_limit_fraction = 1.0;
  /// Fraction of rate limiters that send KoD before going silent (33/38).
  double kod_fraction = 0.87;
  /// Fraction of pool servers exposing the config interface (5.3%).
  double open_config_fraction = 0.0;
  /// TXT padding in pool responses, sized so the NS/glue tail crosses the
  /// fragment boundary at `attack_mtu` (stands in for the paper's
  /// response-inflation tricks).
  std::size_t pool_response_pad = 80;
  /// Attacker-served time shift (the paper's lab used -500 s).
  double attacker_time_shift = -500.0;
  /// Number of attacker NTP servers (4 plain; 89 for the Chronos attack).
  std::size_t attacker_ntp_count = 4;
  /// TTL of the pool A records (§IV-A: 150 s); campaign sweeps vary it to
  /// show how re-query cadence bounds the attack windows.
  u32 pool_a_ttl = 150;
  u16 attack_mtu = 296;
  net::StackConfig resolver_stack;   ///< fragment policy of the resolver
  dns::Resolver::Config resolver;
  net::StackConfig ns_stack;         ///< PMTUD policy of the nameserver
  sim::Duration link_latency = sim::Duration::millis(10);
};

class World {
 public:
  explicit World(WorldConfig config = {});

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  // --- victim-side infrastructure -------------------------------------
  [[nodiscard]] Ipv4Addr resolver_addr() const { return resolver_stack_->addr(); }
  [[nodiscard]] dns::Resolver& resolver() { return *resolver_; }
  [[nodiscard]] dns::PoolZone& pool_zone() { return *pool_zone_; }
  [[nodiscard]] Ipv4Addr pool_ns_addr() const { return ns_stack_->addr(); }
  [[nodiscard]] std::vector<Ipv4Addr> pool_server_addrs() const;
  [[nodiscard]] ntp::NtpServer& pool_server(std::size_t i) {
    return *pool_servers_[i]->server;
  }

  // --- attacker-side ---------------------------------------------------
  [[nodiscard]] net::NetStack& attacker() { return *attacker_stack_; }
  [[nodiscard]] Ipv4Addr attacker_ns_addr() const {
    return attacker_ns_stack_->addr();
  }
  [[nodiscard]] std::vector<Ipv4Addr> attacker_ntp_addrs() const;
  /// Poisoner configuration wired to this world's addresses.
  [[nodiscard]] attack::PoisonerConfig default_poisoner_config() const;

  // --- victim hosts ----------------------------------------------------
  struct Host {
    std::unique_ptr<net::NetStack> stack;
    ntp::SystemClock clock;
  };
  /// Create a victim host (e.g. for an NTP client); the World keeps it
  /// alive.
  Host& add_host(Ipv4Addr addr,
                 net::StackConfig stack_config = net::StackConfig{});

  // --- state checks ----------------------------------------------------
  /// Does the resolver currently serve attacker addresses for
  /// pool.ntp.org A (fresh resolution; consults cached delegation)?
  [[nodiscard]] bool delegation_hijacked();
  /// Is an attacker address cached for the pool A record right now?
  [[nodiscard]] bool pool_a_poisoned();
  [[nodiscard]] bool is_attacker_ntp(Ipv4Addr addr) const;

  /// Advance simulation time.
  void run_for(sim::Duration d) { loop_.run_for(d); }

 private:
  struct PoolServer {
    std::unique_ptr<net::NetStack> stack;
    std::unique_ptr<ntp::SystemClock> clock;
    std::unique_ptr<ntp::NtpServer> server;
  };

  WorldConfig config_;
  Rng rng_;
  sim::EventLoop loop_;
  sim::Network net_;

  std::unique_ptr<net::NetStack> ns_stack_;
  std::unique_ptr<dns::Nameserver> nameserver_;
  std::shared_ptr<dns::PoolZone> pool_zone_;
  std::vector<std::unique_ptr<PoolServer>> pool_servers_;

  std::unique_ptr<net::NetStack> resolver_stack_;
  std::unique_ptr<dns::Resolver> resolver_;

  std::unique_ptr<net::NetStack> attacker_stack_;
  std::unique_ptr<net::NetStack> attacker_ns_stack_;
  std::unique_ptr<dns::Nameserver> attacker_nameserver_;
  std::vector<std::unique_ptr<PoolServer>> attacker_ntp_;

  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace dnstime::scenario
