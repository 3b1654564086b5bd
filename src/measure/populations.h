// Synthetic populations standing in for the paper's Internet-scale
// measurement targets, which a simulator cannot scan.
//
// Each sampler draws per-host behaviour profiles from the marginal
// distributions the paper *reports*; the measurement tools then run the
// paper's *methodology* against live simulated hosts built from those
// profiles. What is being reproduced is the measurement pipeline — the
// scan logic, classification heuristics and analysis — not the Internet.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "net/netstack.h"

namespace dnstime::measure {

// ---- pool NTP servers (§VII-A scan) -----------------------------------

struct PoolServerParams {
  double rate_limit_fraction = 0.38;  ///< §VII-A: 38% rate-limit
  double kod_fraction_of_limiters = 0.868;  ///< 33% KoD / 38% limiters
  double open_config_fraction = 0.053;      ///< §IV-B2c: 5.3%
  /// Some rate limiters still answer a trickle while limiting (§VII-A
  /// notes this as a false-positive source the halves heuristic absorbs).
  double leak_probability = 0.05;
};

struct PoolServerProfile {
  bool rate_limits = false;
  bool sends_kod = false;
  bool open_config = false;
};

[[nodiscard]] PoolServerProfile sample_pool_server(Rng& rng,
                                                   const PoolServerParams& p);

// ---- nameservers of popular domains (§VII-B, Fig. 5) -------------------

struct DomainParams {
  double dnssec_fraction = 0.077;   ///< signed domains (~1-10%)
  /// Emits fragments on ICMP at all; calibrated so that fragmenting AND
  /// unsigned ~= the paper's 7.66% of all domains.
  double fragments_fraction = 0.083;
  // Of the fragmenting nameservers, the minimum fragment size they will
  // go down to (Fig. 5 knee points).
  double min548_fraction = 0.832;  ///< fragment down to 548
  double min292_fraction = 0.0705; ///< of those, even down to 292
  /// Exact-fraction (index-based) assignment instead of sampling; used
  /// for small populations like the 30 pool nameservers.
  bool deterministic = false;
};

struct NameserverProfile {
  bool dnssec_signed = false;
  bool honors_pmtud = false;
  u16 min_fragment_size = 1500;  ///< smallest fragment it will emit
};

[[nodiscard]] NameserverProfile sample_nameserver(Rng& rng,
                                                  const DomainParams& p);

// ---- open resolvers (§VIII-A, Table IV, Fig. 6) ------------------------

struct OpenResolverParams {
  /// Fraction with each pool record cached (Table IV marginals).
  double cached_ns = 0.5828;
  double cached_a = 0.6941;
  double cached_sub_a[4] = {0.6392, 0.6128, 0.6155, 0.5858};
  /// Fraction whose RD=0 handling is broken (probed but unverifiable;
  /// the paper verified the technique on 646,212 of 1,583,045 responders).
  double ignores_rd_bit = 0.10;
  double accepts_fragments = 0.31;  ///< §VIII-A2: 31% overall
};

struct OpenResolverProfile {
  bool cached_ns = false;
  bool cached_a = false;
  bool cached_sub_a[4] = {false, false, false, false};
  u32 a_ttl_remaining = 0;  ///< uniform in [0,150) when cached (Fig. 6)
  bool ignores_rd_bit = false;
  bool accepts_fragments = false;
};

[[nodiscard]] OpenResolverProfile sample_open_resolver(
    Rng& rng, const OpenResolverParams& p);

// ---- ad-network web clients (§VIII-B, Table V) --------------------------

enum class Region { kAsia, kAfrica, kEurope, kNorthAmerica, kLatinAmerica };
enum class Device { kPc, kMobile };

[[nodiscard]] const char* region_name(Region r);

struct AdClientParams {
  /// Client counts per region as in Table V (dataset 1 + the NA dataset 2).
  std::vector<std::pair<Region, std::size_t>> region_counts = {
      {Region::kAsia, 3169},
      {Region::kAfrica, 303},
      {Region::kEurope, 1390},
      {Region::kNorthAmerica, 2314},
      {Region::kLatinAmerica, 838},
  };
  double mobile_fraction = 0.53;  ///< 3108 of 5847
  double google_resolver_fraction = 791.0 / 5847.0;
  /// Monotone fragment-acceptance classes for non-Google resolvers,
  /// calibrated to Table V's tiny/medium/big marginals: a resolver that
  /// accepts a fragment size accepts every larger one.
  /// Per-region tiny(68B) acceptance among non-Google resolvers,
  /// back-calibrated from Table V's regional tiny columns.
  double accept_tiny_by_region[5] = {0.67, 0.85, 0.84, 0.68, 0.79};
  double accept_small_extra = 0.05;   ///< accepts >=296 but not 68
  double accept_medium_extra = 0.08;  ///< accepts >=580
  double accept_big_extra = 0.09;     ///< accepts >=1280
  /// DNSSEC validation rate per region (§VIII-B2: 19.14%..28.94%).
  double dnssec_validation[5] = {0.20, 0.25, 0.29, 0.19, 0.22};
  /// Results filtered out: page closed under 30 s / baseline failures.
  double invalid_result_fraction = 0.06;
};

struct AdClientProfile {
  Region region = Region::kAsia;
  Device device = Device::kPc;
  bool uses_google_resolver = false;
  /// Smallest first-fragment size the client's resolver accepts;
  /// 0 => accepts everything, 0xFFFF => rejects all fragments.
  u16 resolver_min_fragment = 0;
  bool resolver_validates_dnssec = false;
  bool result_valid = true;  ///< survives the paper's filtering rules
};

[[nodiscard]] std::vector<AdClientProfile> sample_ad_clients(
    Rng& rng, const AdClientParams& p);

// ---- shared-resolver discovery (§VIII-B3) -------------------------------

struct SharedResolverParams {
  std::size_t web_resolvers = 2000;  ///< scaled from the paper's 18,668
  double smtp_shared_fraction = 0.113;
  double open_fraction = 0.023;
  double open_and_smtp_fraction = 0.002;
};

struct WebResolverProfile {
  bool has_smtp_neighbor = false;
  bool is_open = false;
};

[[nodiscard]] std::vector<WebResolverProfile> sample_web_resolvers(
    Rng& rng, const SharedResolverParams& p);

}  // namespace dnstime::measure
