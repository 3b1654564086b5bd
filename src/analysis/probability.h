// Closed-form probability model of the run-time attack (§V-B, Table III),
// plus a Monte-Carlo validator.
//
// P1(n): the attacker discovers upstream servers one at a time (refid
// leak) and must remove n of them; each is rate-limiting independently
// with probability p, so P1(n) = p^n.
//
// P2(m, n): the attacker knows all m upstreams and may pick which n to
// remove; success iff at least n of the m rate-limit:
//   P2(m, n) = sum_{i=n..m} C(m,i) p^i (1-p)^{m-i}.
//
// The paper's Table III uses n = max(strict majority of m, m-2): a client
// shifts time only when a majority of associations serve attacker time,
// and ntpd-style clients re-query DNS only after dropping to MINCLOCK
// (m - 2 removals).
#pragma once

#include <vector>

#include "common/rng.h"

namespace dnstime::analysis {

/// §VII-A measurement: fraction of pool.ntp.org servers that rate-limit.
inline constexpr double kMeasuredRateLimitFraction = 0.38;

[[nodiscard]] double binomial_coefficient(int n, int k);

/// P1(n) = p^n.
[[nodiscard]] double p1(int n, double p = kMeasuredRateLimitFraction);

/// P2(m, n) = P[at least n of m rate-limit].
[[nodiscard]] double p2(int m, int n, double p = kMeasuredRateLimitFraction);

/// Table III's n for a client with m associations: the attacker must
/// remove max(strict majority, m-2) servers.
[[nodiscard]] int required_removals(int m);

struct TableIIIRow {
  int m;
  int n;
  double p1;
  double p2;
};

/// All rows of Table III (m = 1..9) at p = kMeasuredRateLimitFraction.
[[nodiscard]] std::vector<TableIIIRow> table_iii();

/// Monte-Carlo estimate of P2(m, n): draw m servers, count rate limiters.
[[nodiscard]] double monte_carlo_p2(int m, int n, double p, int trials,
                                    Rng& rng);

}  // namespace dnstime::analysis
