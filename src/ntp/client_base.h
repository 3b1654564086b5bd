// Shared machinery for all NTP client models: resolution of the pool
// domain (dns::kPoolDomain) through the host's configured recursive
// resolver, the mode-3 poll transaction, and clock discipline under the
// step/panic policy of ntp/poll_policy.h. The population fleet
// (scenario::ClientPopulation) polls through the same poll_server.
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

/// A poll that has no acceptable reply this long after the query ends as
/// a timeout.
inline constexpr sim::Duration kPollTimeout = sim::Duration::seconds(2);

/// Result of one poll transaction. A timeout sets neither flag.
struct PollResult {
  bool responded = false;
  bool kod = false;
  double offset = 0.0;  ///< server clock minus client clock, seconds
  double delay = 0.0;   ///< round-trip minus server processing, seconds
};

using PollCallback = std::function<void(const PollResult&)>;

/// Send one mode-3 query from `stack`, timestamped T1 by `clock`, to
/// `server`, and hand `cb` exactly one outcome: the first mode-4 reply from
/// server:123 that is a rate KoD or echoes T1 as its origin timestamp, or
/// else a timeout after kPollTimeout. Replies from another address or
/// port, in another mode, that fail to decode or that carry another origin
/// are ignored.
void poll_server(net::NetStack& stack, const SystemClock& clock,
                 Ipv4Addr server, PollCallback cb);

struct ClientBaseConfig {
  /// Recursive resolver this host is configured with.
  Ipv4Addr resolver;
  sim::Duration poll_interval = sim::Duration::seconds(64);
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

  /// Addresses of currently usable upstream servers (for tests/attacks).
  [[nodiscard]] virtual std::vector<Ipv4Addr> current_servers() const = 0;

 protected:
  /// Poll every server in `servers` at once; when the last poll ends, hand
  /// `done` the offsets of those that answered, in arrival order (at once
  /// if `servers` is empty).
  void collect_offsets(const std::vector<Ipv4Addr>& servers,
                       std::function<void(std::vector<double>)> done);

  /// Resolve the pool domain's A records via the configured resolver.
  void resolve(dns::StubResolver::Callback cb);

  /// Apply one measured offset to the local clock under the step/panic
  /// policy. Returns true if the clock changed.
  bool discipline(double offset, bool at_boot);

  net::NetStack& stack_;
  SystemClock& clock_;
  ClientBaseConfig config_;
  dns::StubResolver stub_;
};

}  // namespace dnstime::ntp
