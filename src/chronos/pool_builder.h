// Chronos server-pool generation (§VI, following the NDSS'18 proposal and
// draft-schiff-ntp-chronos): query pool.ntp.org once an hour for 24 hours
// and take the union of all returned addresses (4 per response => up to 96
// servers).
//
// The two weaknesses the paper identifies live here, deliberately:
//  * §VI-A the hourly query timing is predictable;
//  * §VI-B responses are combined with no sanity checks — neither the TTL
//    nor the number of addresses in a response is examined, so one
//    poisoned response with 89 attacker addresses and TTL > 24 h dominates
//    the pool and pins every later query to the resolver's cache.
#pragma once

#include <vector>

#include "dns/resolver.h"
#include "sim/time.h"

namespace dnstime::chronos {

/// One query of the pool domain every kQueryInterval, kTotalQueries times.
inline constexpr int kTotalQueries = 24;
inline constexpr sim::Duration kQueryInterval = sim::Duration::hours(1);

class PoolBuilder {
 public:
  PoolBuilder(net::NetStack& stack, Ipv4Addr resolver);

  /// Begin the 24-hour collection.
  void start();

  [[nodiscard]] const std::vector<Ipv4Addr>& pool() const { return pool_; }
  [[nodiscard]] int queries_done() const { return queries_done_; }
  [[nodiscard]] bool finished() const {
    return queries_done_ >= kTotalQueries;
  }

 private:
  void query_once();

  net::NetStack& stack_;
  dns::StubResolver stub_;
  std::vector<Ipv4Addr> pool_;
  int queries_done_ = 0;
};

}  // namespace dnstime::chronos
