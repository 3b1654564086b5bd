#include "measure/ad_study.h"

#include "dns/nameserver.h"
#include "dns/resolver.h"

namespace dnstime::measure {

namespace {

constexpr u64 kSigfailRealSecret = 0xBAD;   // key the zone signs with
constexpr u64 kSigfailAnchor = 0x600D;      // key validators expect
constexpr u64 kSigrightSecret = 0x5157;     // consistent key

/// Answers any name under its apex with an A record plus TXT padding;
/// optionally signs (with whatever secret it was given — a mismatch with
/// the resolver's trust anchor models sigfail).
class WildcardZone : public dns::ZoneAuthority {
 public:
  WildcardZone(dns::DnsName apex, bool sign, u64 secret,
               std::size_t pad_bytes)
      : apex_(std::move(apex)),
        sign_(sign),
        secret_(secret),
        pad_(pad_bytes) {}

  [[nodiscard]] const dns::DnsName& apex() const override { return apex_; }

  bool handle(const dns::DnsQuestion& q, dns::DnsMessage& response) override {
    if (q.type != dns::RrType::kA) return true;
    std::vector<dns::ResourceRecord> rrset = {
        dns::make_a(q.name, Ipv4Addr{192, 0, 2, 80}, 60)};
    dns::emit_rrset(response.answers, rrset, sign_, secret_);
    if (pad_ > 0) {
      std::vector<dns::ResourceRecord> pad_set = {
          dns::make_txt(q.name, std::string(pad_, 'p'), 60)};
      dns::emit_rrset(response.answers, pad_set, sign_, secret_);
    }
    return true;
  }

 private:
  dns::DnsName apex_;
  bool sign_;
  u64 secret_;
  std::size_t pad_;
};

struct StudyNameserver {
  std::unique_ptr<net::NetStack> stack;
  std::unique_ptr<dns::Nameserver> ns;
  dns::DnsName apex;
};

std::unique_ptr<StudyNameserver> make_study_ns(
    sim::Network& net, Rng& rng, u32 addr, const std::string& apex,
    u16 force_mtu, bool sign, u64 secret, std::size_t pad) {
  auto s = std::make_unique<StudyNameserver>();
  s->apex = dns::DnsName::from_string(apex);
  s->stack = std::make_unique<net::NetStack>(net, Ipv4Addr{addr},
                                             net::StackConfig{}, rng.fork());
  dns::Nameserver::Config nc;
  nc.force_fragment_mtu = force_mtu;
  s->ns = std::make_unique<dns::Nameserver>(*s->stack, nc);
  s->ns->add_zone(std::make_shared<WildcardZone>(s->apex, sign, secret, pad));
  return s;
}

}  // namespace

AdStudyResult run_ad_study(const AdStudyConfig& config) {
  constexpr u64 kSeed = 0xAD5;
  Rng rng(kSeed);
  AdStudyResult result;
  auto clients = sample_ad_clients(rng, config.population);
  result.clients_total = clients.size();

  // Process clients in batches to bound live hosts in the simulation.
  const std::size_t kBatch = 250;
  for (std::size_t batch_start = 0; batch_start < clients.size();
       batch_start += kBatch) {
    sim::EventLoop loop;
    sim::Network net(loop, rng.fork());
    net.set_default_profile(
        sim::LinkProfile{.latency = sim::Duration::millis(10)});

    // Study nameservers: one per test domain.
    struct TestDef {
      const char* label;
      u16 mtu;
      bool sign;
      u64 secret;
      std::size_t pad;
    };
    const TestDef defs[7] = {
        {"baseline", 0, false, 0, 200},
        {"ftiny", 68, false, 0, 1200},
        {"fsmall", 296, false, 0, 1200},
        {"fmedium", 580, false, 0, 1200},
        {"fbig", 1280, false, 0, 1400},
        {"sigfail", 0, true, kSigfailRealSecret, 200},
        {"sigright", 0, true, kSigrightSecret, 200},
    };
    std::vector<std::unique_ptr<StudyNameserver>> study_ns;
    for (int d = 0; d < 7; ++d) {
      study_ns.push_back(make_study_ns(
          net, rng, 0x18000001 + static_cast<u32>(d),
          std::string(defs[d].label) + ".study.example", defs[d].mtu,
          defs[d].sign, defs[d].secret, defs[d].pad));
    }

    struct LiveClient {
      std::unique_ptr<net::NetStack> resolver_stack;
      std::unique_ptr<dns::Resolver> resolver;
      std::unique_ptr<net::NetStack> client_stack;
      std::unique_ptr<dns::StubResolver> stub;
      const AdClientProfile* profile = nullptr;
      bool loaded[7] = {};
    };
    std::vector<std::unique_ptr<LiveClient>> live;

    std::size_t batch_end = std::min(batch_start + kBatch, clients.size());
    for (std::size_t i = batch_start; i < batch_end; ++i) {
      const AdClientProfile& profile = clients[i];
      auto lc = std::make_unique<LiveClient>();
      lc->profile = &profile;

      net::StackConfig rsc;
      if (profile.resolver_min_fragment == 0xFFFF) {
        rsc.accept_fragments = false;
      } else {
        rsc.min_first_fragment_size = profile.resolver_min_fragment;
      }
      lc->resolver_stack = std::make_unique<net::NetStack>(
          net, Ipv4Addr{static_cast<u32>(0x20000000 + i)}, rsc, rng.fork());
      dns::Resolver::Config rc;
      rc.validate_dnssec = profile.resolver_validates_dnssec;
      rc.trust_anchors["sigfail.study.example"] = kSigfailAnchor;
      rc.trust_anchors["sigright.study.example"] = kSigrightSecret;
      lc->resolver = std::make_unique<dns::Resolver>(*lc->resolver_stack, rc);
      for (int d = 0; d < 7; ++d) {
        lc->resolver->add_zone_hint(study_ns[static_cast<std::size_t>(d)]->apex,
                                    {study_ns[static_cast<std::size_t>(d)]
                                         ->stack->addr()});
      }

      lc->client_stack = std::make_unique<net::NetStack>(
          net, Ipv4Addr{static_cast<u32>(0x28000000 + i)},
          net::StackConfig{}, rng.fork());
      lc->stub = std::make_unique<dns::StubResolver>(
          *lc->client_stack, lc->resolver_stack->addr());

      // Fire the seven image loads (unique token avoids caching effects).
      for (int d = 0; d < 7; ++d) {
        std::string host = "t" + std::to_string(i) + "." +
                           std::string(defs[d].label) + ".study.example";
        LiveClient* raw = lc.get();
        lc->stub->resolve(
            dns::DnsName::from_string(host), dns::RrType::kA,
            [raw, d](const std::vector<dns::ResourceRecord>& answers) {
              raw->loaded[d] = !answers.empty();
            });
      }
      live.push_back(std::move(lc));
    }

    loop.run_for(sim::Duration::seconds(20));

    for (const auto& lc : live) {
      const AdClientProfile& p = *lc->profile;
      // The paper's filtering: early-close clients and clients failing
      // baseline/sigright are removed.
      bool valid = p.result_valid && lc->loaded[0] && lc->loaded[6];
      if (!valid) continue;
      result.clients_valid++;

      bool tiny = lc->loaded[1];
      bool any = lc->loaded[1] || lc->loaded[2] || lc->loaded[3] ||
                 lc->loaded[4];
      auto bump = [&](AdStudyCell& cell) {
        cell.total++;
        if (tiny) cell.accepts_tiny++;
        if (any) cell.accepts_any++;
      };
      bump(result.all);
      bump(result.by_region[static_cast<int>(p.region)]);
      if (!p.uses_google_resolver) bump(result.without_google);
      bump(p.device == Device::kPc ? result.pc : result.mobile);
      if (lc->loaded[2]) result.accepts_small++;
      if (lc->loaded[3]) result.accepts_medium++;
      if (lc->loaded[4]) result.accepts_big++;

      // DNSSEC validation: sigfail blocked while sigright loaded.
      if (!lc->loaded[5]) {
        result.validating[static_cast<int>(p.region)]++;
        result.validating_total++;
      }
    }
  }
  return result;
}

}  // namespace dnstime::measure
