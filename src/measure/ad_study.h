// §VIII-B / Table V: the ad-network client study.
//
// Each simulated web client loads seven "images" whose hostnames resolve
// through the client's own resolver against our study nameservers:
//   T.baseline  — normal response;
//   T.ftiny     — always fragmented to 68-byte fragments;
//   T.fsmall    — 296;  T.fmedium — 580;  T.fbig — 1280;
//   sigfail     — incorrectly DNSSEC-signed;  sigright — correctly signed.
// A test "image" loads iff the resolution returns answers. Result
// filtering follows the paper: discard clients that failed baseline or
// sigright, or closed the page early.
#pragma once

#include "measure/populations.h"

namespace dnstime::measure {

struct AdStudyConfig {
  AdClientParams population;
};

struct AdStudyCell {
  std::size_t accepts_tiny = 0;
  std::size_t accepts_any = 0;
  std::size_t total = 0;
  [[nodiscard]] double tiny_fraction() const {
    return total == 0 ? 0 : static_cast<double>(accepts_tiny) / total;
  }
  [[nodiscard]] double any_fraction() const {
    return total == 0 ? 0 : static_cast<double>(accepts_any) / total;
  }
};

struct AdStudyResult {
  std::size_t clients_total = 0;
  std::size_t clients_valid = 0;
  AdStudyCell by_region[5];
  AdStudyCell all;
  AdStudyCell without_google;
  AdStudyCell pc;
  AdStudyCell mobile;
  /// Fragment acceptance by size across all valid clients.
  std::size_t accepts_small = 0, accepts_medium = 0, accepts_big = 0;
  /// DNSSEC validation (sigfail blocked, sigright loaded) per region.
  std::size_t validating[5] = {};
  std::size_t validating_total = 0;

  [[nodiscard]] double dnssec_validation_fraction(int region) const {
    return by_region[region].total == 0
               ? 0
               : static_cast<double>(validating[region]) /
                     by_region[region].total;
  }
};

[[nodiscard]] AdStudyResult run_ad_study(const AdStudyConfig& config);

}  // namespace dnstime::measure
