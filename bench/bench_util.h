// Shared formatting helpers for the reproduction benches: every bench
// prints the paper's reported value next to the measured one so the
// "shape" comparison is immediate.
#pragma once

#include <cstdio>
#include <string>

namespace dnstime::bench {

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::string& label, const std::string& paper,
                const std::string& measured) {
  std::printf("  %-44s paper: %-14s measured: %s\n", label.c_str(),
              paper.c_str(), measured.c_str());
}

inline std::string pct(double fraction, int decimals = 1) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

inline std::string minutes(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f min", seconds / 60.0);
  return buf;
}

}  // namespace dnstime::bench
