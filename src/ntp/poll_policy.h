// Clock-discipline policy, factored out of NtpClientBase so population-
// scale worlds can discipline flat per-client state without instantiating
// a client object per victim.
//
// The branch structure is ntpd's (§V-A1): offsets within the noise floor
// are ignored, small offsets slew, large ones step up to the panic
// threshold, and the panic threshold itself is waived at boot (ntpd -g;
// §V-A1: limits "are explicitly not enforced at boot-time").
// scenario::ClientPopulation and NtpClientBase both classify through this
// one function, so the herd and the single-victim worlds can never drift
// apart on discipline rules.
#pragma once

#include "common/types.h"

namespace dnstime::ntp {

/// Offsets below this magnitude (seconds) are measurement noise; applying
/// them would just jitter the clock.
inline constexpr double kOffsetNoiseFloor = 0.0005;
/// Offsets above this are stepped rather than slewed (ntpd: 128 ms).
inline constexpr double kStepThreshold = 0.128;
/// Offsets above this are refused at run-time (ntpd panic: 1000 s).
inline constexpr double kPanicThreshold = 1000.0;

enum class OffsetAction : u8 {
  kNone,    ///< within noise, leave the clock alone
  kSlew,    ///< gradual adjustment
  kStep,    ///< set the clock
  kRefuse,  ///< beyond panic threshold at run-time
};

[[nodiscard]] constexpr OffsetAction classify_offset(double offset,
                                                     bool at_boot) {
  const double mag = offset < 0 ? -offset : offset;
  if (mag < kOffsetNoiseFloor) return OffsetAction::kNone;
  if (mag <= kStepThreshold) return OffsetAction::kSlew;
  if (mag <= kPanicThreshold || at_boot) return OffsetAction::kStep;
  return OffsetAction::kRefuse;
}

}  // namespace dnstime::ntp
