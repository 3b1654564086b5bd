// §VIII-A / Table IV / Fig. 6: cache probing of open DNS resolvers.
//
// The RD=0 technique [Wills et al. 2003]: a query with Recursion Desired
// cleared is answered only from cache, so the presence of an answer
// reveals whether the record is cached — without planting anything.
// Verification protocol per resolver (as in the paper): (1) an RD=0 query
// for a known-noncached name must return no answer; (2) after an RD=1
// query primes a test name, the RD=0 re-query must return it. Resolvers
// failing either step are excluded from the statistics.
#pragma once

#include "common/histogram.h"
#include "measure/populations.h"

namespace dnstime::measure {

struct CacheProbeConfig {
  /// Scaled sample of the paper's 1.58M responding open resolvers.
  std::size_t resolvers = 4000;
};

struct CacheProbeRow {
  std::string record;
  std::size_t cached = 0;
  std::size_t not_cached = 0;
  [[nodiscard]] double cached_fraction() const {
    auto total = cached + not_cached;
    return total == 0 ? 0.0
                      : static_cast<double>(cached) /
                            static_cast<double>(total);
  }
};

struct CacheProbeResult {
  std::size_t probed = 0;
  std::size_t verified = 0;  ///< passed the two-step RD verification
  std::vector<CacheProbeRow> rows;  ///< Table IV rows
  Histogram ttl_histogram{0, 160, 32};  ///< Fig. 6: remaining TTLs of A
};

[[nodiscard]] CacheProbeResult probe_open_resolvers(
    const CacheProbeConfig& config);

}  // namespace dnstime::measure
