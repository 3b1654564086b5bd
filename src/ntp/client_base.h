// Shared machinery for all NTP client models: DNS pool resolution through
// the host's configured recursive resolver, mode-3 poll transactions with
// offset/delay computation, and clock discipline with step/panic
// thresholds.
//
// The clients in ntp/clients/ reproduce the DNS-lookup and
// association-management behaviour of the real implementations in the
// paper's Table I (PoolClient covers ntpd, chrony and openntpd from one
// per-daemon table); those behavioural differences — not the NTP
// arithmetic — decide which attack (boot-time/run-time) applies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "ntp/association.h"
#include "ntp/clock.h"
#include "ntp/packet.h"

namespace dnstime::ntp {

struct ClientBaseConfig {
  /// DNS name(s) of the server pool (default mirrors real configs).
  std::vector<std::string> pool_domains = {"pool.ntp.org"};
  /// Recursive resolver this host is configured with.
  Ipv4Addr resolver;
  sim::Duration poll_interval = sim::Duration::seconds(64);
  sim::Duration poll_timeout = sim::Duration::seconds(2);
  /// Offsets above this are stepped rather than slewed (ntpd: 128 ms).
  double step_threshold = 0.128;
  /// Offsets above this are refused at run-time (ntpd panic: 1000 s).
  double panic_threshold = 1000.0;
  /// Accept any offset at boot (ntpd -g semantics; §V-A1: limits "are
  /// explicitly not enforced at boot-time").
  bool allow_panic_at_boot = true;
};

/// Result of one poll transaction.
struct PollResult {
  bool responded = false;
  bool kod = false;
  double offset = 0.0;  ///< server clock minus client clock, seconds
  double delay = 0.0;   ///< round-trip minus server processing, seconds
  NtpPacket packet;
};

class NtpClientBase {
 public:
  NtpClientBase(net::NetStack& stack, SystemClock& clock,
                ClientBaseConfig config);
  virtual ~NtpClientBase() = default;

  NtpClientBase(const NtpClientBase&) = delete;
  NtpClientBase& operator=(const NtpClientBase&) = delete;

  /// Boot the client (initial DNS lookups + polling).
  virtual void start() = 0;
  /// Human-readable implementation name (Table I row).
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] SystemClock& clock() { return clock_; }
  [[nodiscard]] const SystemClock& clock() const { return clock_; }
  [[nodiscard]] net::NetStack& stack() { return stack_; }
  [[nodiscard]] u64 dns_queries() const { return stub_.queries_sent(); }
  [[nodiscard]] const ClientBaseConfig& base_config() const { return config_; }

  /// Addresses of currently usable upstream servers (for tests/attacks).
  [[nodiscard]] virtual std::vector<Ipv4Addr> current_servers() const = 0;

 protected:
  using PollCallback = std::function<void(const PollResult&)>;

  /// Send one mode-3 query to `server` and deliver the outcome (response,
  /// KoD, or timeout) to `cb`.
  void poll_server(Ipv4Addr server, PollCallback cb);

  /// Poll every server in `servers` at once; when the last poll ends, hand
  /// `done` the offsets of those that answered, in arrival order (at once
  /// if `servers` is empty).
  void collect_offsets(const std::vector<Ipv4Addr>& servers,
                       std::function<void(std::vector<double>)> done);

  /// Resolve `domain` A records via the configured resolver.
  void resolve(const std::string& domain, dns::StubResolver::Callback cb);

  /// Apply one measured offset to the local clock under the configured
  /// step/panic policy. Returns true if the clock changed.
  bool discipline(double offset, bool at_boot);

  net::NetStack& stack_;
  SystemClock& clock_;
  ClientBaseConfig config_;
  dns::StubResolver stub_;
};

}  // namespace dnstime::ntp
