// §VII-A scan: rate limiting among pool.ntp.org NTP servers.
//
// Methodology as in the paper: query each server 64 times, once per
// second; classify as KoD-sending if a Kiss-o'-Death arrives, and as
// rate-limiting if the first half of the test yielded more than 8
// additional responses compared to the second half (absorbing packet loss
// and limiters that leak a trickle of answers). Also counts servers that
// answer the mode-6 configuration interface (§IV-B2c).
#pragma once

#include "measure/populations.h"

namespace dnstime::measure {

/// The §VII-A probe: 64 mode-3 queries per server at 1 Hz. A server that
/// answers more than 8 more queries in the first half than in the second
/// counts as rate-limiting.
struct RateLimitScanConfig {
  std::size_t servers = 2432;  ///< the paper's pool snapshot size
  PoolServerParams population;
};

struct RateLimitScanResult {
  std::size_t servers = 0;
  std::size_t kod_servers = 0;
  std::size_t rate_limiting_servers = 0;
  std::size_t open_config_servers = 0;
  /// Ground truth from the planted population, for validation.
  std::size_t truth_rate_limiting = 0;
  std::size_t truth_kod = 0;
  std::size_t truth_open_config = 0;

  [[nodiscard]] double kod_fraction() const {
    return static_cast<double>(kod_servers) / static_cast<double>(servers);
  }
  [[nodiscard]] double rate_limit_fraction() const {
    return static_cast<double>(rate_limiting_servers) /
           static_cast<double>(servers);
  }
  [[nodiscard]] double open_config_fraction() const {
    return static_cast<double>(open_config_servers) /
           static_cast<double>(servers);
  }
};

[[nodiscard]] RateLimitScanResult scan_pool_rate_limiting(
    const RateLimitScanConfig& config);

}  // namespace dnstime::measure
