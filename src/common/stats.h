// Small statistics helpers shared by clients (clock filters take medians),
// measurement analysis (means, percentiles) and the cross-campaign diff
// engine (significance tests: Welch's t, two-proportion z, two-sample KS).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "common/types.h"

namespace dnstime {

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  auto mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(mid - 1),
                   v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (v[mid - 1] + hi) / 2.0;
}

/// Unbiased sample variance; 0 for n < 2.
[[nodiscard]] inline double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return ss / static_cast<double>(v.size() - 1);
}

/// Two-sided p-value for a standard-normal test statistic.
[[nodiscard]] inline double normal_two_sided_p(double z) {
  if (std::isnan(z)) return 1.0;
  return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

/// Wilson score confidence interval for a binomial proportion.
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
};

/// Critical value of the Wilson interval: 1.96 ~ 95% confidence.
inline constexpr double kWilsonZ = 1.96;

/// Wilson interval for `successes` out of `trials` at critical value
/// kWilsonZ. Preferred over the normal approximation for the small trial
/// counts campaign progress reports mid-run: it never leaves [0, 1] and
/// stays meaningful at 0/n and n/n. Degenerate contract: trials == 0 (or
/// successes > trials) -> the vacuous {0, 1}.
[[nodiscard]] inline WilsonInterval wilson_interval(u64 successes,
                                                    u64 trials) {
  constexpr double z = kWilsonZ;
  WilsonInterval w;
  // Explicitly the vacuous [0, 1] — not a confident [0, 0] — so a progress
  // stream queried before the first trial completes renders "no information
  // yet" rather than "certainly 0%". Pinned in the stats and forensics
  // tests; do not let this degrade to value-initialised members.
  if (trials == 0 || successes > trials) return WilsonInterval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  w.low = std::max(0.0, (centre - margin) / denom);
  w.high = std::min(1.0, (centre + margin) / denom);
  return w;
}

/// Regularised incomplete beta function I_x(a, b), the workhorse behind
/// the Student-t CDF. Continued fraction per Numerical Recipes (modified
/// Lentz), converging for all a, b > 0 and x in [0, 1].
[[nodiscard]] inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // I_x(a,b) = 1 - I_{1-x}(b,a); evaluate the side where the continued
  // fraction converges fast.
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - incomplete_beta(b, a, 1.0 - x);
  }
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-14;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double frac = d;
  for (int m = 1; m <= 300; ++m) {
    const double dm = static_cast<double>(m);
    // Even step.
    double num = dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 + num * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    frac *= d * c;
    // Odd step.
    num = -(a + dm) * (a + b + dm) * x /
          ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 + num * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    frac *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return std::exp(ln_front) * frac / a;
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of
/// freedom: P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2).
[[nodiscard]] inline double student_t_two_sided_p(double t, double df) {
  if (std::isnan(t) || !(df > 0.0)) return 1.0;
  if (std::isinf(t)) return 0.0;
  return incomplete_beta(df / 2.0, 0.5, df / (df + t * t));
}

/// Outcome of a two-sample location test. `valid` is false when the
/// inputs cannot support the test at all (too few samples); the p-value
/// is then the conservative 1.0, never a fabricated verdict.
struct TestResult {
  double statistic = 0.0;  ///< t or z
  double df = 0.0;         ///< Welch-Satterthwaite df (t-tests only)
  double p = 1.0;          ///< two-sided
  bool valid = false;
};

/// Welch's unequal-variance t-test from summary statistics (sample sizes,
/// means, unbiased sample variances). Degenerate inputs follow a fixed
/// contract the unit tests pin down:
///   * n1 < 2 or n2 < 2            -> invalid (variance is not estimable);
///   * both variances zero, means
///     equal / different           -> t = 0, p = 1  /  t = +-inf, p = 0
///     (zero observed spread makes any difference exact).
[[nodiscard]] inline TestResult welch_t_test(std::size_t n1, double mean1,
                                             double var1, std::size_t n2,
                                             double mean2, double var2) {
  TestResult r;
  if (n1 < 2 || n2 < 2) return r;
  r.valid = true;
  const double a = var1 / static_cast<double>(n1);
  const double b = var2 / static_cast<double>(n2);
  const double se2 = a + b;
  const double diff = mean2 - mean1;
  if (se2 <= 0.0) {
    if (diff == 0.0) {
      r.statistic = 0.0;
      r.df = static_cast<double>(n1 + n2 - 2);
      r.p = 1.0;
    } else {
      r.statistic = diff > 0 ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
      r.df = static_cast<double>(n1 + n2 - 2);
      r.p = 0.0;
    }
    return r;
  }
  r.statistic = diff / std::sqrt(se2);
  r.df = se2 * se2 /
         (a * a / static_cast<double>(n1 - 1) +
          b * b / static_cast<double>(n2 - 1));
  r.p = student_t_two_sided_p(r.statistic, r.df);
  return r;
}

/// Welch's t-test over two raw samples.
[[nodiscard]] inline TestResult welch_t_test(const std::vector<double>& a,
                                             const std::vector<double>& b) {
  return welch_t_test(a.size(), mean(a), variance(a), b.size(), mean(b),
                      variance(b));
}

/// Two-proportion z-test with pooled standard error: did the success
/// probability move between successes1/n1 and successes2/n2? Degenerate
/// contract: n1 == 0 or n2 == 0 -> invalid; pooled proportion 0 or 1
/// (both samples all-failure or all-success) -> z = 0, p = 1 (the samples
/// agree exactly, there is nothing to test).
[[nodiscard]] inline TestResult two_proportion_z_test(u64 successes1, u64 n1,
                                                      u64 successes2,
                                                      u64 n2) {
  TestResult r;
  if (n1 == 0 || n2 == 0 || successes1 > n1 || successes2 > n2) return r;
  r.valid = true;
  const double p1 = static_cast<double>(successes1) / static_cast<double>(n1);
  const double p2 = static_cast<double>(successes2) / static_cast<double>(n2);
  const double pooled = static_cast<double>(successes1 + successes2) /
                        static_cast<double>(n1 + n2);
  const double se2 = pooled * (1.0 - pooled) *
                     (1.0 / static_cast<double>(n1) +
                      1.0 / static_cast<double>(n2));
  if (se2 <= 0.0) {  // pooled 0 or 1: p1 == p2 exactly
    r.statistic = 0.0;
    r.p = 1.0;
    return r;
  }
  r.statistic = (p2 - p1) / std::sqrt(se2);
  r.p = normal_two_sided_p(r.statistic);
  return r;
}

/// Two-sample Kolmogorov-Smirnov test: statistic = sup |F1 - F2| over the
/// two empirical CDFs, p-value via the asymptotic Kolmogorov distribution
/// with the Stephens small-sample correction. Inputs need not be sorted.
/// Invalid when either sample is empty.
[[nodiscard]] inline TestResult ks_test(std::vector<double> a,
                                        std::vector<double> b) {
  TestResult r;
  if (a.empty() || b.empty()) return r;
  r.valid = true;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  r.statistic = d;
  const double ne = std::sqrt(na * nb / (na + nb));
  const double lambda = (ne + 0.12 + 0.11 / ne) * d;
  if (lambda <= 0.0) {
    r.p = 1.0;
    return r;
  }
  double p = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * lambda * lambda *
                                 static_cast<double>(k) *
                                 static_cast<double>(k));
    p += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  r.p = std::clamp(2.0 * p, 0.0, 1.0);
  return r;
}

}  // namespace dnstime
