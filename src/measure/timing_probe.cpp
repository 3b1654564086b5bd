#include "measure/timing_probe.h"

#include <algorithm>

#include "dns/nameserver.h"
#include "dns/pool_zone.h"
#include "dns/resolver.h"

namespace dnstime::measure {

double TimingProbeResult::best_threshold_accuracy() const {
  if (deltas_cached.empty() || deltas_noncached.empty()) return 1.0;
  // Sweep candidate thresholds over the union of observed deltas.
  std::vector<double> candidates = deltas_cached;
  candidates.insert(candidates.end(), deltas_noncached.begin(),
                    deltas_noncached.end());
  std::sort(candidates.begin(), candidates.end());
  double best = 0.0;
  for (double t : candidates) {
    std::size_t correct = 0;
    for (double d : deltas_cached) {
      if (d < t) correct++;
    }
    for (double d : deltas_noncached) {
      if (d >= t) correct++;
    }
    best = std::max(best, static_cast<double>(correct) /
                              (deltas_cached.size() + deltas_noncached.size()));
  }
  return best;
}

TimingProbeResult run_timing_probe(const TimingProbeConfig& config) {
  // Share of the probed resolvers with the pool NS record cached.
  constexpr double kCachedFraction = 0.58;
  constexpr int kFollowupQueries = 4;
  constexpr u64 kSeed = 0x7131;
  Rng rng(kSeed);
  sim::EventLoop loop;
  sim::Network net(loop, rng.fork());

  // Upstream pool nameserver.
  net::NetStack ns_stack(net, Ipv4Addr{198, 51, 100, 53}, net::StackConfig{},
                         rng.fork());
  dns::Nameserver nameserver(ns_stack);
  dns::PoolZone::Config pz;
  pz.nameservers = {
      {dns::DnsName::from_string("ns1.ntp.org"), ns_stack.addr()}};
  std::vector<Ipv4Addr> pool_addrs;
  for (u32 i = 1; i <= 8; ++i) pool_addrs.push_back(Ipv4Addr{0x0A0A0000 + i});
  auto zone = std::make_shared<dns::PoolZone>(dns::pool_name(), pool_addrs, pz);
  nameserver.add_zone(zone);

  TimingProbeResult result;
  result.probed = config.resolvers;

  net::NetStack prober(net, Ipv4Addr{203, 0, 113, 44}, net::StackConfig{},
                       rng.fork());

  struct Target {
    std::unique_ptr<net::NetStack> stack;
    std::unique_ptr<dns::Resolver> resolver;
    bool cached = false;
    std::vector<double> latencies_ms;
  };
  std::vector<std::unique_ptr<Target>> targets;

  const dns::DnsName& pool_ns_q = dns::pool_name();
  for (std::size_t i = 0; i < config.resolvers; ++i) {
    auto t = std::make_unique<Target>();
    t->cached = rng.chance(kCachedFraction);
    if (t->cached) result.cached_truth++;
    Ipv4Addr addr{static_cast<u32>(0x38000000 + i)};
    t->stack = std::make_unique<net::NetStack>(net, addr, net::StackConfig{},
                                               rng.fork());
    t->resolver = std::make_unique<dns::Resolver>(*t->stack,
                                                  dns::Resolver::Config{});
    t->resolver->add_zone_hint(dns::DnsName::from_string("ntp.org"),
                               {ns_stack.addr()});
    if (t->cached) {
      t->resolver->cache().insert(
          pool_ns_q, dns::RrType::kNs,
          {dns::make_ns(pool_ns_q, dns::DnsName::from_string("ns1.ntp.org"),
                        static_cast<u32>(rng.uniform(600, 86400)))},
          loop.now());
    }

    // Heterogeneous paths: the uncontrollable variables of the study.
    // WAN jitter on the prober<->resolver leg can exceed the extra hop a
    // cache miss costs when the nameserver is close (anycast, or the
    // parent zone already cached) — exactly what ruins the threshold.
    sim::LinkProfile to_resolver{
        .latency = sim::Duration::millis(
            static_cast<i64>(rng.uniform(5, 120))),
        .jitter = sim::Duration::millis(static_cast<i64>(rng.uniform(2, 70)))};
    net.set_profile(prober.addr(), addr, to_resolver);
    net.set_profile(addr, prober.addr(), to_resolver);
    sim::LinkProfile to_ns{
        .latency = sim::Duration::millis(
            static_cast<i64>(rng.uniform(2, 120))),
        .jitter = sim::Duration::millis(static_cast<i64>(rng.uniform(1, 10)))};
    net.set_profile(addr, ns_stack.addr(), to_ns);
    net.set_profile(ns_stack.addr(), addr, to_ns);
    targets.push_back(std::move(t));
  }

  // Probe sequence per resolver: 1 + followup queries, 2 s apart, all
  // RD=1 for the NS record; record per-query latency.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Target* t = targets[i].get();
    for (int q = 0; q <= kFollowupQueries; ++q) {
      loop.schedule_after(
          sim::Duration::seconds(2 * q), [t, &prober, &loop, pool_ns_q] {
            u16 port = prober.ephemeral_port();
            sim::Time sent = loop.now();
            auto done = std::make_shared<bool>(false);
            prober.bind_udp(port, [t, &prober, port, sent, &loop, done](
                                      const net::UdpEndpoint&, u16,
                                      const PacketBuf&) {
              if (*done) return;
              *done = true;
              prober.unbind_udp(port);
              t->latencies_ms.push_back((loop.now() - sent).to_millis());
            });
            dns::DnsMessage query;
            query.id = prober.rng().next_u16();
            query.rd = true;
            query.questions = {
                dns::DnsQuestion{pool_ns_q, dns::RrType::kNs}};
            prober.send_udp(t->stack->addr(), port, kDnsPort,
                            encode_dns_buf(query));
          });
    }
  }
  loop.run_for(sim::Duration::seconds(2 * (kFollowupQueries + 3)));

  for (const auto& t : targets) {
    if (t->latencies_ms.size() < 2) continue;
    double t_first = t->latencies_ms.front();
    double sum = 0.0;
    for (std::size_t k = 1; k < t->latencies_ms.size(); ++k) {
      sum += t->latencies_ms[k];
    }
    double t_avg = sum / static_cast<double>(t->latencies_ms.size() - 1);
    double delta = t_first - t_avg;
    result.deltas.add(delta);
    (t->cached ? result.deltas_cached : result.deltas_noncached)
        .push_back(delta);
  }
  return result;
}

}  // namespace dnstime::measure
