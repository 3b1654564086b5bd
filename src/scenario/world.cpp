#include "scenario/world.h"

#include "obs/provenance.h"

namespace dnstime::scenario {

World::World(WorldConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      loop_(),
      net_(loop_, rng_.fork()) {
  // Every link runs the Network's default profile (10 ms, no jitter).

  // Pool NTP servers: 10.10.x.y.
  std::vector<Ipv4Addr> pool_addrs;
  for (std::size_t i = 0; i < config_.pool_size; ++i) {
    auto ps = std::make_unique<PoolServer>();
    Ipv4Addr addr{static_cast<u32>(0x0A0A0000 + i + 1)};
    net::StackConfig pool_sc;
    pool_sc.origin_module = OriginModule::kPoolNtp;
    ps->stack = std::make_unique<net::NetStack>(net_, addr, pool_sc,
                                                rng_.fork());
    ps->clock = std::make_unique<ntp::SystemClock>(0.0);
    ntp::ServerConfig sc;
    bool limits = rng_.chance(config_.rate_limit_fraction);
    sc.rate_limit.enabled = limits;
    sc.rate_limit.send_kod = limits && rng_.chance(config_.kod_fraction);
    sc.open_config_interface = rng_.chance(config_.open_config_fraction);
    sc.configured_hostname = dns::kPoolDomain;
    ps->server = std::make_unique<ntp::NtpServer>(*ps->stack, *ps->clock, sc);
    pool_addrs.push_back(addr);
    pool_servers_.push_back(std::move(ps));
  }

  // pool.ntp.org authoritative nameserver at 198.51.100.53.
  net::StackConfig ns_sc = config_.ns_stack;
  ns_sc.origin_module = OriginModule::kNameserver;
  ns_stack_ = std::make_unique<net::NetStack>(
      net_, Ipv4Addr{198, 51, 100, 53}, ns_sc, rng_.fork());
  nameserver_ = std::make_unique<dns::Nameserver>(*ns_stack_);
  dns::PoolZone::Config pz;
  pz.a_ttl = config_.pool_a_ttl;
  // TXT padding sized so the NS/glue tail crosses the fragment boundary at
  // the attack MTU (stands in for the paper's response-inflation tricks).
  constexpr std::size_t kPoolResponsePad = 80;
  pz.pad_txt_bytes = kPoolResponsePad;
  pz.nameservers = {
      {dns::DnsName::from_string("ns1.ntp.org"), ns_stack_->addr()},
      {dns::DnsName::from_string("ns2.ntp.org"), ns_stack_->addr()},
      {dns::DnsName::from_string("ns3.ntp.org"), ns_stack_->addr()},
  };
  pool_zone_ =
      std::make_shared<dns::PoolZone>(dns::pool_name(), pool_addrs, pz);
  nameserver_->add_zone(pool_zone_);

  // Victim recursive resolver at 10.53.0.1.
  net::StackConfig resolver_sc = config_.resolver_stack;
  resolver_sc.origin_module = OriginModule::kResolver;
  resolver_stack_ = std::make_unique<net::NetStack>(
      net_, Ipv4Addr{10, 53, 0, 1}, resolver_sc, rng_.fork());
  resolver_ = std::make_unique<dns::Resolver>(*resolver_stack_,
                                              dns::Resolver::Config{});
  resolver_->add_zone_hint(dns::DnsName::from_string("ntp.org"),
                           {ns_stack_->addr()});

  // Attacker: host 6.6.6.6, nameserver 6.6.6.53, NTP servers 6.6.7.x.
  net::StackConfig attacker_sc;
  attacker_sc.origin_module = OriginModule::kAttacker;
  attacker_stack_ = std::make_unique<net::NetStack>(
      net_, Ipv4Addr{6, 6, 6, 6}, attacker_sc, rng_.fork());
  net::StackConfig attacker_ns_sc;
  attacker_ns_sc.origin_module = OriginModule::kAttackerNs;
  attacker_ns_stack_ = std::make_unique<net::NetStack>(
      net_, Ipv4Addr{6, 6, 6, 53}, attacker_ns_sc, rng_.fork());
  attacker_nameserver_ = std::make_unique<dns::Nameserver>(*attacker_ns_stack_);
  const dns::DnsName& pool = dns::pool_name();
  auto evil_zone = std::make_shared<dns::StaticZone>(pool);
  for (std::size_t i = 0; i < config_.attacker_ntp_count; ++i) {
    auto ps = std::make_unique<PoolServer>();
    Ipv4Addr addr{static_cast<u32>(0x06060700 + i + 1)};
    net::StackConfig evil_sc;
    evil_sc.origin_module = OriginModule::kAttackerNtp;
    ps->stack = std::make_unique<net::NetStack>(net_, addr, evil_sc,
                                                rng_.fork());
    ps->clock = std::make_unique<ntp::SystemClock>(0.0);
    ntp::ServerConfig sc;
    sc.time_shift = config_.attacker_time_shift;
    // Attacker servers never rate-limit: the attacker wants every victim
    // query answered.
    ps->server = std::make_unique<ntp::NtpServer>(*ps->stack, *ps->clock, sc);
    // Long TTL: keeps the poisoned answer pinned (>=24 h for Chronos).
    evil_zone->add(dns::make_a(pool, addr, 25 * 3600));
    // Country/numbered subzones resolve to the same attacker servers.
    evil_zone->add(dns::make_a(pool.prepend("0"), addr, 25 * 3600));
    attacker_ntp_.push_back(std::move(ps));
  }
  attacker_nameserver_->add_zone(std::move(evil_zone));

  // Observability: any cached answer the resolver serves that carries one
  // of these addresses is a poisoned entry (dns.poisoned_served metric).
  // The same set feeds the trial's flight recorder so NTP peer events
  // against attacker servers count as the chain's "peer steered" stage.
  std::vector<Ipv4Addr> tainted = attacker_ntp_addrs();
  tainted.push_back(attacker_ns_stack_->addr());
  for (Ipv4Addr a : tainted) {
    DNSTIME_PROV_EVENT(add_tainted(a.value()));
  }
  resolver_->mark_tainted(std::move(tainted));
}

std::vector<Ipv4Addr> World::pool_server_addrs() const {
  std::vector<Ipv4Addr> out;
  out.reserve(pool_servers_.size());
  for (const auto& ps : pool_servers_) out.push_back(ps->stack->addr());
  return out;
}

std::vector<Ipv4Addr> World::attacker_ntp_addrs() const {
  std::vector<Ipv4Addr> out;
  out.reserve(attacker_ntp_.size());
  for (const auto& ps : attacker_ntp_) out.push_back(ps->stack->addr());
  return out;
}

attack::PoisonerConfig World::default_poisoner_config() const {
  attack::PoisonerConfig pc;
  pc.ns_addr = ns_stack_->addr();
  pc.resolver_addr = resolver_stack_->addr();
  pc.mtu = config_.attack_mtu;
  // The spoofed fragment redirects the zone's glue to the attacker's
  // nameserver; the nameserver then hands out the attacker's NTP fleet.
  pc.malicious_addrs = {attacker_ns_stack_->addr()};
  return pc;
}

World::Host& World::add_host(Ipv4Addr addr) {
  auto host = std::make_unique<Host>();
  net::StackConfig victim_sc;
  victim_sc.origin_module = OriginModule::kVictim;
  host->stack =
      std::make_unique<net::NetStack>(net_, addr, victim_sc, rng_.fork());
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

bool World::is_attacker_ntp(Ipv4Addr addr) const {
  for (const auto& ps : attacker_ntp_) {
    if (ps->stack->addr() == addr) return true;
  }
  return false;
}

bool World::pool_a_poisoned() {
  auto cached = resolver_->cache().lookup(dns::pool_name(), dns::RrType::kA,
                                          loop_.now());
  if (!cached) return false;
  for (const auto& rr : *cached) {
    if (is_attacker_ntp(rr.a)) return true;
  }
  return false;
}

bool World::delegation_hijacked() {
  // The delegation is hijacked when the cached glue for any pool NS name
  // points at the attacker's nameserver.
  for (const auto& label : {"ns1", "ns2", "ns3"}) {
    auto glue = resolver_->cache().lookup(
        dns::DnsName::from_string(std::string(label) + ".ntp.org"),
        dns::RrType::kA, loop_.now());
    if (!glue) continue;
    for (const auto& rr : *glue) {
      if (rr.a == attacker_ns_stack_->addr()) return true;
    }
  }
  return false;
}

}  // namespace dnstime::scenario
