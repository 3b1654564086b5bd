#include "attack/run_time_attack.h"

#include "ntp/packet.h"
#include "obs/trace.h"

namespace dnstime::attack {

namespace {
/// Cadence of refid / config-interface upstream discovery.
constexpr sim::Duration kDiscoveryInterval = sim::Duration::seconds(32);
/// Cadence of the success check.
constexpr sim::Duration kCheckInterval = sim::Duration::seconds(30);
}  // namespace

RunTimeAttack::RunTimeAttack(net::NetStack& attacker, RunTimeConfig config)
    : stack_(attacker),
      config_(std::move(config)),
      abuser_(attacker, config_.victim) {}

void RunTimeAttack::run(std::function<bool()> success_check,
                        std::function<void(const AttackOutcome&)> done) {
  success_check_ = std::move(success_check);
  done_ = std::move(done);
  started_ = stack_.now();
  // The time-shift phase: from here until finish() the attacker starves
  // honest NTP and the victim coasts onto attacker time.
  DNSTIME_TRACE_BEGIN(started_.ns(), "attack", "shift");
  discover();
  stack_.loop().schedule_after(kCheckInterval, [this] { tick(); });
}

void RunTimeAttack::stop() {
  finished_ = true;
  abuser_.stop();
}

void RunTimeAttack::discover() {
  if (finished_) return;
  switch (config_.discovery) {
    case RunTimeConfig::Discovery::kKnownList:
      // P1: everything at once; no further discovery needed.
      abuser_.disrupt_all(config_.known_servers);
      return;
    case RunTimeConfig::Discovery::kRefidLeak:
      query_refid();
      break;
    case RunTimeConfig::Discovery::kConfigInterface:
      query_config();
      break;
  }
  stack_.loop().schedule_after(kDiscoveryInterval,
                               [this] { discover(); });
}

void RunTimeAttack::note_upstream(Ipv4Addr addr) {
  if (addr == kAnyAddr || addr == stack_.addr()) return;
  for (Ipv4Addr known : discovered_) {
    if (known == addr) return;
  }
  discovered_.push_back(addr);
  DNSTIME_TRACE_INSTANT(stack_.now().ns(), "attack", "upstream-discovered");
  abuser_.disrupt(addr);
}

void RunTimeAttack::query_refid() {
  // Ordinary mode-3 query to the victim (which serves NTP by default);
  // the mode-4 response's refid names its current system peer (§IV-B2b).
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 1.0;
  u16 port = stack_.ephemeral_port();
  stack_.bind_udp(port, [this, port](const net::UdpEndpoint& from, u16,
                                     BufView payload) {
    stack_.unbind_udp(port);
    if (from.addr != config_.victim) return;
    try {
      ntp::NtpPacket resp = ntp::decode_ntp(payload);
      note_upstream(Ipv4Addr{resp.refid});
    } catch (const DecodeError&) {
    }
  });
  stack_.send_udp(config_.victim, port, kNtpPort, encode_ntp_buf(query));
}

void RunTimeAttack::query_config() {
  u16 port = stack_.ephemeral_port();
  stack_.bind_udp(port, [this, port](const net::UdpEndpoint& from, u16,
                                     BufView payload) {
    stack_.unbind_udp(port);
    if (from.addr != config_.victim) return;
    auto resp = ntp::decode_config_response(payload);
    if (!resp) return;
    for (Ipv4Addr addr : resp->upstream_addrs) note_upstream(addr);
  });
  stack_.send_udp(config_.victim, port, kNtpPort,
                  ntp::encode_config_request());
}

void RunTimeAttack::tick() {
  if (finished_) return;
  if (success_check_ && success_check_()) {
    finish(true);
    return;
  }
  if (stack_.now() - started_ > config_.deadline) {
    finish(false);
    return;
  }
  stack_.loop().schedule_after(kCheckInterval, [this] { tick(); });
}

void RunTimeAttack::finish(bool success) {
  if (finished_) return;
  finished_ = true;
  DNSTIME_TRACE_END(stack_.now().ns(), "attack", "shift");
  abuser_.stop();
  AttackOutcome outcome;
  outcome.success = success;
  outcome.at = stack_.now();
  if (done_) done_(outcome);
}

}  // namespace dnstime::attack
