// The Chronos sample-trim-agree selection algorithm (NDSS'18 §4).
//
// Given offset samples from a random subset of the pool: sort, discard the
// top and bottom thirds, and accept the average of the remainder only if
// (a) the surviving samples agree within kOmega and (b) the implied
// adjustment is within the local error bound kErrBound. Disagreement
// triggers re-sampling, and after kMaxRetries failures a "panic" pass
// queries the entire pool. The guarantee — and its boundary, which the
// paper's §VI-C attack crosses — is that an attacker controlling more than
// 2/3 of the pool fully determines the post-trim samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace dnstime::chronos {

/// m: servers sampled per update.
inline constexpr std::size_t kSampleSize = 15;
/// Agreement bound among surviving samples, seconds.
inline constexpr double kOmega = 0.050;
/// Max believable drift per update interval, seconds.
inline constexpr double kErrBound = 0.200;
/// Re-sample attempts before panic.
inline constexpr int kMaxRetries = 3;

struct SelectionResult {
  bool accepted = false;
  double offset = 0.0;
  bool agreement_failed = false;
  bool drift_check_failed = false;
};

/// One trim-and-check pass over `offsets` (unsorted ok). Pure function so
/// property tests can sweep adversarial inputs.
[[nodiscard]] SelectionResult chronos_trim_select(std::vector<double> offsets);

/// Panic pass: same trim over the entire pool's samples; the drift check
/// is dropped (Chronos trusts the supermajority in panic mode).
[[nodiscard]] SelectionResult chronos_panic_select(
    std::vector<double> offsets);

}  // namespace dnstime::chronos
