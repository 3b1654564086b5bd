#include "analysis/probability.h"

#include <cmath>

namespace dnstime::analysis {

double binomial_coefficient(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (int i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

double p1(int n, double p) { return std::pow(p, n); }

double p2(int m, int n, double p) {
  double total = 0.0;
  for (int i = n; i <= m; ++i) {
    total += binomial_coefficient(m, i) * std::pow(p, i) *
             std::pow(1.0 - p, m - i);
  }
  return total;
}

int required_removals(int m) {
  int majority = m / 2 + 1;  // strict majority
  int to_minclock = m - 2;   // removals until a DNS re-query triggers
  return majority > to_minclock ? majority : to_minclock;
}

std::vector<TableIIIRow> table_iii() {
  std::vector<TableIIIRow> rows;
  for (int m = 1; m <= 9; ++m) {
    int n = required_removals(m);
    rows.push_back(TableIIIRow{m, n, p1(n), p2(m, n)});
  }
  return rows;
}

double monte_carlo_p2(int m, int n, double p, int trials, Rng& rng) {
  int hits = 0;
  for (int t = 0; t < trials; ++t) {
    int limiting = 0;
    for (int i = 0; i < m; ++i) {
      if (rng.chance(p)) limiting++;
    }
    if (limiting >= n) hits++;
  }
  return static_cast<double>(hits) / trials;
}

}  // namespace dnstime::analysis
