// NTP server (mode 3 -> mode 4 responder).
//
// Configurable per the paper's server-side measurements:
//  * rate limiting + KoD (§VII-A: 38% of pool servers rate-limit, 33% KoD);
//  * time shift — attacker-operated servers answer with shifted time
//    (§V-A2: the lab attack served time shifted by -500 s);
//  * open configuration interface (§IV-B2c: 5.3% leak config);
//  * refid leakage of the upstream ("system peer") address (§IV-B2b) — for
//    servers that are simultaneously clients, the client model feeds the
//    current upstream in via set_upstream().
//
// The server refuses before it parses: short and non-client datagrams are
// dropped on their length and first byte, then the rate limiter decides,
// and only a query that earns an answer or a KoD is decoded. A spoofed
// flood therefore costs one limiter call per packet.
#pragma once

#include "net/netstack.h"
#include "ntp/clock.h"
#include "ntp/packet.h"
#include "ntp/rate_limit.h"

namespace dnstime::ntp {

struct ServerConfig {
  RateLimitConfig rate_limit;
  /// Constant shift (seconds) applied to served time; nonzero for
  /// attacker-controlled servers.
  double time_shift = 0.0;
  /// Answer mode-6 configuration queries with upstream addresses and the
  /// configured hostname.
  bool open_config_interface = false;
  std::string configured_hostname;
};

class NtpServer {
 public:
  NtpServer(net::NetStack& stack, SystemClock& clock, ServerConfig config);
  ~NtpServer();

  NtpServer(const NtpServer&) = delete;
  NtpServer& operator=(const NtpServer&) = delete;

  /// Current upstream ("system peer"); exposed as the refid of mode-4
  /// responses, which is the §IV-B2b leak.
  void set_upstream(Ipv4Addr addr) { upstream_ = addr; }
  [[nodiscard]] Ipv4Addr upstream() const { return upstream_; }

  [[nodiscard]] u64 dropped_rate_limited() const { return dropped_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

 private:
  void on_packet(const net::UdpEndpoint& from, const PacketBuf& payload);

  net::NetStack& stack_;
  SystemClock& clock_;
  ServerConfig config_;
  RateLimiter limiter_;
  Ipv4Addr upstream_;
  u64 dropped_ = 0;
};

}  // namespace dnstime::ntp
