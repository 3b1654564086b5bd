// §VII-B / Fig. 5: PMTUD and fragmentation support of nameservers.
//
// Methodology: for each domain's nameserver, send a forged ICMP
// fragmentation-needed demanding the minimum MTU (68), query the domain,
// and observe the size of the fragments actually emitted — the stack's
// clamp (`min_pmtu`) is what the scan recovers. DNSSEC support is read
// from the presence of RRSIGs in the response.
#pragma once

#include "common/histogram.h"
#include "measure/populations.h"

namespace dnstime::measure {

struct FragScanConfig {
  /// Scaled sample of the paper's 877,071-nameserver population.
  std::size_t domains = 10000;
  DomainParams population;
  u64 seed = 0xF4A6;
};

struct FragScanResult {
  std::size_t domains = 0;
  std::size_t dnssec_signed = 0;
  std::size_t fragmenting = 0;
  /// Fragmenting but unsigned: the Fig. 5 population, "vulnerable to DNS
  /// cache-poisoning attacks via injection of IP fragments" (7.66%).
  std::size_t vulnerable = 0;
  /// Minimum emitted fragment size per vulnerable domain (Fig. 5 CDF).
  EmpiricalCdf min_fragment_cdf;

  [[nodiscard]] double vulnerable_fraction() const {
    return static_cast<double>(vulnerable) / static_cast<double>(domains);
  }
  [[nodiscard]] double fraction_fragmenting_leq(double size) const {
    return min_fragment_cdf.fraction_leq(size);
  }
};

[[nodiscard]] FragScanResult scan_domain_fragmentation(
    const FragScanConfig& config);

/// §VII-B small scan: the pool.ntp.org nameservers themselves (paper: 16
/// of 30 fragment below 548 bytes; none serves DNSSEC).
struct PoolNsScanResult {
  std::size_t nameservers = 0;
  std::size_t fragment_below_548 = 0;
  std::size_t dnssec = 0;
};

[[nodiscard]] PoolNsScanResult scan_pool_nameservers();

}  // namespace dnstime::measure
