#include "measure/cache_probe.h"

#include "dns/nameserver.h"
#include "dns/pool_zone.h"
#include "dns/resolver.h"

namespace dnstime::measure {

namespace {

const char* kProbeNames[6] = {
    "pool.ntp.org",    "pool.ntp.org",    "0.pool.ntp.org",
    "1.pool.ntp.org",  "2.pool.ntp.org",  "3.pool.ntp.org",
};
const dns::RrType kProbeTypes[6] = {
    dns::RrType::kNs, dns::RrType::kA, dns::RrType::kA,
    dns::RrType::kA,  dns::RrType::kA, dns::RrType::kA,
};
const char* kRowLabels[6] = {
    "pool.ntp.org IN NS",   "pool.ntp.org IN A",   "0.pool.ntp.org IN A",
    "1.pool.ntp.org IN A",  "2.pool.ntp.org IN A", "3.pool.ntp.org IN A",
};

struct Target {
  std::unique_ptr<net::NetStack> stack;
  std::unique_ptr<dns::Resolver> resolver;
  OpenResolverProfile profile;
  bool verified = false;
  bool probe_answers[6] = {};
  std::optional<u32> observed_a_ttl;
};

}  // namespace

CacheProbeResult probe_open_resolvers(const CacheProbeConfig& config) {
  constexpr u64 kSeed = 0xCAC4E;
  Rng rng(kSeed);
  sim::EventLoop loop;
  sim::Network net(loop, rng.fork());
  net.set_default_profile(
      sim::LinkProfile{.latency = sim::Duration::millis(10)});

  // Upstream nameserver for the verification domain.
  net::NetStack ns_stack(net, Ipv4Addr{198, 51, 100, 10}, net::StackConfig{},
                         rng.fork());
  dns::Nameserver verifier_ns(ns_stack);
  auto verify_zone =
      std::make_shared<dns::StaticZone>(dns::DnsName::from_string("verify.example"));
  verify_zone->add(dns::make_a(dns::DnsName::from_string("known.verify.example"),
                               Ipv4Addr{192, 0, 2, 55}, 600));
  verifier_ns.add_zone(std::move(verify_zone));

  CacheProbeResult result;
  result.probed = config.resolvers;
  for (const char* label : kRowLabels) {
    result.rows.push_back(CacheProbeRow{label, 0, 0});
  }

  const dns::DnsName& pool_name = dns::pool_name();
  std::vector<std::unique_ptr<Target>> targets;
  for (std::size_t i = 0; i < config.resolvers; ++i) {
    auto t = std::make_unique<Target>();
    t->profile = sample_open_resolver(rng);
    t->stack = std::make_unique<net::NetStack>(
        net, Ipv4Addr{static_cast<u32>(0x14000000 + i)}, net::StackConfig{},
        rng.fork());
    dns::Resolver::Config rc;
    rc.ignore_rd_bit = t->profile.ignores_rd_bit;
    t->resolver = std::make_unique<dns::Resolver>(*t->stack, rc);
    t->resolver->add_zone_hint(dns::DnsName::from_string("verify.example"),
                               {ns_stack.addr()});

    // Seed the cache per the population profile: what NTP clients using
    // this resolver would have left behind.
    auto seed_a = [&](const dns::DnsName& name, u32 ttl) {
      std::vector<dns::ResourceRecord> rrset;
      for (int k = 0; k < 4; ++k) {
        rrset.push_back(dns::make_a(
            name, Ipv4Addr{static_cast<u32>(0x0A0A0000 + k + 1)}, ttl));
      }
      t->resolver->cache().insert(name, dns::RrType::kA, rrset, loop.now());
    };
    if (t->profile.cached_ns) {
      t->resolver->cache().insert(
          pool_name, dns::RrType::kNs,
          {dns::make_ns(pool_name, dns::DnsName::from_string("ns1.ntp.org"),
                        static_cast<u32>(rng.uniform(100, 86400)))},
          loop.now());
    }
    if (t->profile.cached_a) {
      seed_a(pool_name, t->profile.a_ttl_remaining);
    }
    for (int k = 0; k < 4; ++k) {
      if (t->profile.cached_sub_a[k]) {
        seed_a(pool_name.prepend(std::to_string(k)),
               static_cast<u32>(rng.uniform(1, 149)));
      }
    }
    targets.push_back(std::move(t));
  }

  net::NetStack scanner(net, Ipv4Addr{203, 0, 113, 88}, net::StackConfig{},
                        rng.fork());

  // Helper: one query to one resolver; callback with the answer count and
  // first answer TTL.
  auto query = [&](Target* t, const dns::DnsName& name, dns::RrType type,
                   bool rd,
                   std::function<void(std::size_t, std::optional<u32>)> cb) {
    u16 port = scanner.ephemeral_port();
    auto done = std::make_shared<bool>(false);
    scanner.bind_udp(port, [&scanner, port, done, cb](
                               const net::UdpEndpoint&, u16,
                               BufView payload) {
      if (*done) return;
      *done = true;
      scanner.unbind_udp(port);
      try {
        dns::DnsMessage resp = dns::decode_dns(payload);
        std::optional<u32> ttl;
        if (!resp.answers.empty()) ttl = resp.answers.front().ttl;
        cb(resp.answers.size(), ttl);
      } catch (const DecodeError&) {
        cb(0, std::nullopt);
      }
    });
    dns::DnsMessage q;
    q.id = scanner.rng().next_u16();
    q.rd = rd;
    q.questions = {dns::DnsQuestion{name, type}};
    scanner.send_udp(t->stack->addr(), port, kDnsPort, encode_dns_buf(q));
    loop.schedule_after(sim::Duration::seconds(2), [&scanner, port, done, cb] {
      if (*done) return;
      *done = true;
      scanner.unbind_udp(port);
      cb(0, std::nullopt);
    });
  };

  // Full per-resolver pipeline: verification then the six probes.
  for (auto& tp : targets) {
    Target* t = tp.get();
    // Step 1: RD=0 for a known-noncached name -> expect no answer.
    query(t, dns::DnsName::from_string("known.verify.example"),
          dns::RrType::kA, /*rd=*/false,
          [&, t](std::size_t answers_noncached, std::optional<u32>) {
            if (answers_noncached != 0) return;  // broken RD handling
            // Step 2: prime with RD=1, then RD=0 must answer.
            query(t, dns::DnsName::from_string("known.verify.example"),
                  dns::RrType::kA, /*rd=*/true,
                  [&, t](std::size_t primed, std::optional<u32>) {
                    if (primed == 0) return;
                    query(t, dns::DnsName::from_string("known.verify.example"),
                          dns::RrType::kA, /*rd=*/false,
                          [&, t](std::size_t cached, std::optional<u32>) {
                            if (cached == 0) return;
                            t->verified = true;
                            // The six Table IV probes.
                            for (int row = 0; row < 6; ++row) {
                              query(t,
                                    dns::DnsName::from_string(
                                        kProbeNames[row]),
                                    kProbeTypes[row], /*rd=*/false,
                                    [t, row](std::size_t n,
                                             std::optional<u32> ttl) {
                                      t->probe_answers[row] = n > 0;
                                      if (row == 1 && ttl) {
                                        t->observed_a_ttl = ttl;
                                      }
                                    });
                            }
                          });
                  });
          });
  }
  loop.run_for(sim::Duration::seconds(30));

  for (const auto& t : targets) {
    if (!t->verified) continue;
    result.verified++;
    for (int row = 0; row < 6; ++row) {
      if (t->probe_answers[row]) {
        result.rows[row].cached++;
      } else {
        result.rows[row].not_cached++;
      }
    }
    if (t->observed_a_ttl) {
      result.ttl_histogram.add(static_cast<double>(*t->observed_a_ttl));
    }
  }
  return result;
}

}  // namespace dnstime::measure
