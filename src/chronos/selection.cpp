#include "chronos/selection.h"

#include <algorithm>
#include <numeric>

namespace dnstime::chronos {

namespace {

struct Trimmed {
  std::vector<double> surviving;
};

Trimmed trim_thirds(std::vector<double> offsets) {
  std::sort(offsets.begin(), offsets.end());
  std::size_t d = offsets.size() / 3;
  Trimmed t;
  if (offsets.size() <= 2 * d) return t;
  t.surviving.assign(offsets.begin() + static_cast<std::ptrdiff_t>(d),
                     offsets.end() - static_cast<std::ptrdiff_t>(d));
  return t;
}

double avg(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

SelectionResult chronos_trim_select(std::vector<double> offsets) {
  SelectionResult result;
  if (offsets.empty()) return result;
  Trimmed t = trim_thirds(std::move(offsets));
  if (t.surviving.empty()) return result;

  double spread = t.surviving.back() - t.surviving.front();
  if (spread > kOmega) {
    result.agreement_failed = true;
    return result;
  }
  double offset = avg(t.surviving);
  if (offset > kErrBound || offset < -kErrBound) {
    result.drift_check_failed = true;
    return result;
  }
  result.accepted = true;
  result.offset = offset;
  return result;
}

SelectionResult chronos_panic_select(std::vector<double> offsets) {
  SelectionResult result;
  if (offsets.empty()) return result;
  Trimmed t = trim_thirds(std::move(offsets));
  if (t.surviving.empty()) return result;
  double spread = t.surviving.back() - t.surviving.front();
  if (spread > kOmega) {
    // Even the full pool disagrees beyond omega: attacker controls between
    // 1/3 and 2/3 — Chronos refuses to update (its availability cost).
    result.agreement_failed = true;
    return result;
  }
  result.accepted = true;
  result.offset = avg(t.surviving);
  return result;
}

}  // namespace dnstime::chronos
