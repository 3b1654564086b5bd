// NTP server-side rate limiting (ntpd `restrict limited [kod]` /
// `discard`, chrony `ratelimit` semantics).
//
// Two mechanisms, as in deployed servers:
//  * a hard minimum inter-arrival gap (`discard minimum`): packets that
//    arrive faster are dropped outright — this is what the run-time
//    attack's spoofed flood exploits (§IV-B2): with sub-gap spacing, the
//    server drops *everything* sourced from the victim's address,
//    including the victim's genuine polls;
//  * a token bucket bounding the average rate (`discard average`): a
//    burst is tolerated, then roughly one response per kAvgInterval —
//    this produces the scan signature of §VII-A (plenty of answers in the
//    first half of a 64-query/1 Hz probe, silence in the second half).
#pragma once

#include <unordered_map>

#include "common/rng.h"
#include "common/types.h"
#include "sim/time.h"

namespace dnstime::ntp {

/// Packets from one source closer together than this are dropped
/// unconditionally.
inline constexpr sim::Duration kMinGap = sim::Duration::millis(500);
/// Token-bucket refill: one token per this interval (the enforced average
/// rate).
inline constexpr sim::Duration kAvgInterval = sim::Duration::seconds(8);

struct RateLimitConfig {
  bool enabled = false;
  /// Token-bucket depth: tolerated burst size.
  double burst = 16.0;
  /// Send a Kiss-o'-Death on the first drop of a dry spell (ntpd `kod`).
  /// §VII-A: 33% of pool servers KoD; the rest just go silent.
  bool send_kod = true;
  /// Fraction of over-limit queries answered anyway ("some servers will
  /// answer a small fraction of queries, even during the client is
  /// rate-limited").
  double leak_probability = 0.0;
};

class RateLimiter {
 public:
  enum class Action { kRespond, kKod, kDrop };

  explicit RateLimiter(RateLimitConfig config, Rng rng = Rng{0x7a7e})
      : config_(config), rng_(std::move(rng)) {}

  /// Account one query from `src` at `now` and decide the response.
  Action check(Ipv4Addr src, sim::Time now);

  /// True if a query from `src` arriving now would be refused.
  [[nodiscard]] bool is_limited(Ipv4Addr src, sim::Time now) const;
  [[nodiscard]] const RateLimitConfig& config() const { return config_; }

 private:
  struct SourceState {
    sim::Time last_arrival;
    double tokens = 0.0;
    bool kod_sent = false;
    bool seen = false;
  };

  Action limited_action(SourceState& st);

  RateLimitConfig config_;
  Rng rng_;
  std::unordered_map<Ipv4Addr, SourceState> sources_;
};

}  // namespace dnstime::ntp
