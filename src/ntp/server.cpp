#include "ntp/server.h"

namespace dnstime::ntp {

namespace {
/// RFC 5905 fixed header: anything shorter is not an NTP query.
constexpr std::size_t kNtpHeaderSize = 48;
}  // namespace

NtpServer::NtpServer(net::NetStack& stack, SystemClock& clock,
                     ServerConfig config)
    : stack_(stack),
      clock_(clock),
      config_(std::move(config)),
      limiter_(config_.rate_limit, stack.rng().fork()) {
  stack_.bind_udp(kNtpPort, [this](const net::UdpEndpoint& from, u16,
                                   const PacketBuf& payload) {
    on_packet(from, payload);
  });
}

NtpServer::~NtpServer() { stack_.unbind_udp(kNtpPort); }

void NtpServer::on_packet(const net::UdpEndpoint& from,
                          const PacketBuf& payload) {
  // Mode-6 configuration interface (if exposed).
  if (is_config_request(payload)) {
    if (config_.open_config_interface) {
      ConfigResponse resp;
      if (upstream_ != kAnyAddr) resp.upstream_addrs.push_back(upstream_);
      resp.configured_hostname = config_.configured_hostname;
      stack_.send_udp(from.addr, kNtpPort, from.port,
                      encode_config_response_buf(resp));
    }
    return;
  }

  // ntpd's order: a datagram that is not a full mode-3 header never
  // charges the source's rate limit, and only a query the limiter lets
  // through is decoded, so a spoofed flood dies in the limiter unparsed.
  if (payload.size() < kNtpHeaderSize ||
      static_cast<Mode>(payload[0] & 0x7) != Mode::kClient) {
    return;
  }

  sim::Time now = stack_.now();
  RateLimiter::Action action = limiter_.check(from.addr, now);
  if (action == RateLimiter::Action::kDrop) {
    dropped_++;
    return;
  }
  const NtpPacket query = decode_ntp(payload);  // length checked above
  if (action == RateLimiter::Action::kKod) {
    NtpPacket kod;
    kod.mode = Mode::kServer;
    kod.stratum = 0;
    kod.refid = kKodRate;
    kod.poll = query.poll;
    kod.org_time = query.tx_time;
    stack_.send_udp(from.addr, kNtpPort, from.port, encode_ntp_buf(kod));
    return;
  }

  // Every simulated server claims a stratum-1 source, like a typical pool
  // server.
  constexpr u8 kStratum = 2;
  double wall = clock_.wall_seconds(now) + config_.time_shift;
  NtpPacket resp;
  resp.mode = Mode::kServer;
  resp.stratum = kStratum;
  resp.poll = query.poll;
  resp.refid = upstream_.value();
  resp.ref_time = wall - 16.0;  // pretend last sync 16 s ago
  resp.org_time = query.tx_time;
  resp.rx_time = wall;
  resp.tx_time = wall;
  stack_.send_udp(from.addr, kNtpPort, from.port, encode_ntp_buf(resp));
}

}  // namespace dnstime::ntp
