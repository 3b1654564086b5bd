// §VIII-B3: finding resolvers an attacker can trigger queries through.
//
// Given the resolvers observed serving web clients (from the ad study),
// the scan (1) queries each directly to find open resolvers, (2)
// port-scans each resolver's /24 for SMTP hosts and sends each a test
// mail with a unique token sender-domain; the resolver that then queries
// our nameserver for the token is the SMTP host's resolver. Resolvers
// reachable either way are "triggerable": the attacker can make them emit
// the upstream query the poisoning needs.
#pragma once

#include "measure/populations.h"

namespace dnstime::measure {

struct SharedResolverScanConfig {
  SharedResolverParams population;
};

struct SharedResolverScanResult {
  std::size_t web_resolvers = 0;
  std::size_t only_web = 0;
  std::size_t smtp_shared = 0;   ///< reachable via a co-located mail host
  std::size_t open = 0;          ///< answers direct queries
  std::size_t open_and_smtp = 0;
  std::size_t smtp_hosts_found = 0;

  [[nodiscard]] std::size_t triggerable() const {
    return smtp_shared + open + open_and_smtp;
  }
  [[nodiscard]] double triggerable_fraction() const {
    return web_resolvers == 0
               ? 0
               : static_cast<double>(triggerable()) / web_resolvers;
  }
};

[[nodiscard]] SharedResolverScanResult discover_shared_resolvers(
    const SharedResolverScanConfig& config);

}  // namespace dnstime::measure
