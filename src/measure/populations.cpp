#include "measure/populations.h"

namespace dnstime::measure {

namespace {

/// Rate limiters that send a KoD: 33% KoD / 38% limiters (§VII-A).
constexpr double kKodFractionOfLimiters = 0.868;

// Open resolvers: the fraction with each pool record cached (Table IV
// marginals), ...
constexpr double kCachedNs = 0.5828;
constexpr double kCachedA = 0.6941;
constexpr double kCachedSubA[4] = {0.6392, 0.6128, 0.6155, 0.5858};
/// ... the fraction whose RD=0 handling is broken (probed but
/// unverifiable; the paper verified the technique on 646,212 of 1,583,045
/// responders) ...
constexpr double kIgnoresRdBit = 0.10;
/// ... and the fraction accepting fragments (§VIII-A2: 31% overall).
constexpr double kAcceptsFragments = 0.31;

// Ad-network clients (Table V).
constexpr double kMobileFraction = 0.53;  ///< 3108 of 5847
constexpr double kGoogleResolverFraction = 791.0 / 5847.0;
/// Monotone fragment-acceptance classes for non-Google resolvers,
/// calibrated to Table V's tiny/medium/big marginals: a resolver that
/// accepts a fragment size accepts every larger one.
/// Per-region tiny(68B) acceptance among non-Google resolvers,
/// back-calibrated from Table V's regional tiny columns.
constexpr double kAcceptTinyByRegion[5] = {0.67, 0.85, 0.84, 0.68, 0.79};
constexpr double kAcceptSmallExtra = 0.05;   ///< accepts >=296 but not 68
constexpr double kAcceptMediumExtra = 0.08;  ///< accepts >=580
constexpr double kAcceptBigExtra = 0.09;     ///< accepts >=1280
/// DNSSEC validation rate per region (§VIII-B2: 19.14%..28.94%).
constexpr double kDnssecValidation[5] = {0.20, 0.25, 0.29, 0.19, 0.22};
/// Results filtered out: page closed under 30 s / baseline failures.
constexpr double kInvalidResultFraction = 0.06;

// Web resolvers (§VIII-B3).
constexpr double kSmtpSharedFraction = 0.113;
constexpr double kOpenFraction = 0.023;
constexpr double kOpenAndSmtpFraction = 0.002;

}  // namespace

PoolServerProfile sample_pool_server(Rng& rng, const PoolServerParams& p) {
  PoolServerProfile profile;
  profile.rate_limits = rng.chance(p.rate_limit_fraction);
  profile.sends_kod =
      profile.rate_limits && rng.chance(kKodFractionOfLimiters);
  profile.open_config = rng.chance(p.open_config_fraction);
  return profile;
}

NameserverProfile sample_nameserver(Rng& rng, const DomainParams& p) {
  NameserverProfile profile;
  profile.dnssec_signed = rng.chance(p.dnssec_fraction);
  profile.honors_pmtud = rng.chance(p.fragments_fraction);
  if (!profile.honors_pmtud) {
    profile.min_fragment_size = net::kEthernetMtu;
    return profile;
  }
  if (rng.chance(p.min548_fraction)) {
    profile.min_fragment_size =
        rng.chance(p.min292_fraction / p.min548_fraction) ? 292 : 548;
  } else {
    // The Fig. 5 tail: fragments, but only down to near-Ethernet sizes.
    profile.min_fragment_size = 1276;
  }
  return profile;
}

OpenResolverProfile sample_open_resolver(Rng& rng) {
  OpenResolverProfile profile;
  profile.cached_ns = rng.chance(kCachedNs);
  profile.cached_a = rng.chance(kCachedA);
  for (int i = 0; i < 4; ++i) {
    profile.cached_sub_a[i] = rng.chance(kCachedSubA[i]);
  }
  if (profile.cached_a) {
    // A record TTL is 150 s; a cache populated at a random time in the
    // past holds a uniformly distributed remainder (Fig. 6).
    profile.a_ttl_remaining = static_cast<u32>(rng.uniform(1, 149));
  }
  profile.ignores_rd_bit = rng.chance(kIgnoresRdBit);
  profile.accepts_fragments = rng.chance(kAcceptsFragments);
  return profile;
}

std::vector<AdClientProfile> sample_ad_clients(Rng& rng,
                                               const AdClientParams& p) {
  std::vector<AdClientProfile> clients;
  for (const auto& [region, count] : p.region_counts) {
    for (std::size_t i = 0; i < count; ++i) {
      AdClientProfile c;
      c.region = region;
      c.device = rng.chance(kMobileFraction) ? Device::kMobile : Device::kPc;
      c.uses_google_resolver = rng.chance(kGoogleResolverFraction);
      // NB: thresholds use the sizes fragments actually take on the
      // wire — payloads are 8-aligned, so MTU 296 emits 292-byte leading
      // fragments and MTU 1280 emits 1276-byte ones.
      if (c.uses_google_resolver) {
        // Google's resolvers filter every fragment size below "big".
        c.resolver_min_fragment = 1276;
      } else {
        double accept_tiny = kAcceptTinyByRegion[static_cast<int>(region)];
        double u = rng.uniform01();
        if (u < accept_tiny) {
          c.resolver_min_fragment = 0;
        } else if (u < accept_tiny + kAcceptSmallExtra) {
          c.resolver_min_fragment = 292;
        } else if (u < accept_tiny + kAcceptSmallExtra +
                           kAcceptMediumExtra) {
          c.resolver_min_fragment = 580;
        } else if (u < accept_tiny + kAcceptSmallExtra +
                           kAcceptMediumExtra + kAcceptBigExtra) {
          c.resolver_min_fragment = 1276;
        } else {
          c.resolver_min_fragment = 0xFFFF;  // rejects all fragments
        }
      }
      c.resolver_validates_dnssec =
          rng.chance(kDnssecValidation[static_cast<int>(region)]);
      c.result_valid = !rng.chance(kInvalidResultFraction);
      clients.push_back(c);
    }
  }
  return clients;
}

std::vector<WebResolverProfile> sample_web_resolvers(
    Rng& rng, const SharedResolverParams& p) {
  std::vector<WebResolverProfile> out;
  out.reserve(p.web_resolvers);
  for (std::size_t i = 0; i < p.web_resolvers; ++i) {
    WebResolverProfile r;
    double u = rng.uniform01();
    if (u < kOpenAndSmtpFraction) {
      r.is_open = true;
      r.has_smtp_neighbor = true;
    } else if (u < kOpenAndSmtpFraction + kOpenFraction) {
      r.is_open = true;
    } else if (u < kOpenAndSmtpFraction + kOpenFraction +
                       kSmtpSharedFraction) {
      r.has_smtp_neighbor = true;
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace dnstime::measure
