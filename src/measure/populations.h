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
  double rate_limit_fraction = 0.38;    ///< §VII-A: 38% rate-limit
  double open_config_fraction = 0.053;  ///< §IV-B2c: 5.3%
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

struct OpenResolverProfile {
  bool cached_ns = false;
  bool cached_a = false;
  bool cached_sub_a[4] = {false, false, false, false};
  u32 a_ttl_remaining = 0;  ///< uniform in [0,150) when cached (Fig. 6)
  bool ignores_rd_bit = false;
  bool accepts_fragments = false;
};

/// Draws from the Table IV / §VIII-A marginals.
[[nodiscard]] OpenResolverProfile sample_open_resolver(Rng& rng);

// ---- ad-network web clients (§VIII-B, Table V) --------------------------

enum class Region { kAsia, kAfrica, kEurope, kNorthAmerica, kLatinAmerica };
enum class Device { kPc, kMobile };

/// Per-client behaviour follows Table V's marginals (device mix, Google
/// resolver share, regional fragment acceptance and DNSSEC validation).
struct AdClientParams {
  /// Client counts per region as in Table V (dataset 1 + the NA dataset 2).
  std::vector<std::pair<Region, std::size_t>> region_counts = {
      {Region::kAsia, 3169},
      {Region::kAfrica, 303},
      {Region::kEurope, 1390},
      {Region::kNorthAmerica, 2314},
      {Region::kLatinAmerica, 838},
  };
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

/// Each resolver is open, shares a host with a mail server, or both, at
/// the §VIII-B3 rates.
struct SharedResolverParams {
  std::size_t web_resolvers = 2000;  ///< scaled from the paper's 18,668
};

struct WebResolverProfile {
  bool has_smtp_neighbor = false;
  bool is_open = false;
};

[[nodiscard]] std::vector<WebResolverProfile> sample_web_resolvers(
    Rng& rng, const SharedResolverParams& p);

}  // namespace dnstime::measure
