// Per-host system clock.
//
// wall = kSimEpochNtpSeconds + simulated-elapsed + offset. The offset is
// what NTP discipline adjusts and what a time-shifting attack corrupts;
// attack success in the Table II experiments is "victim clock offset
// reaches the attacker's shift".
#pragma once

#include "ntp/timestamps.h"
#include "sim/time.h"

namespace dnstime::ntp {

class SystemClock {
 public:
  explicit SystemClock(double initial_offset_seconds = 0.0)
      : offset_(initial_offset_seconds) {}

  /// Current wall-clock reading (NTP-era seconds) at simulation time `now`.
  [[nodiscard]] double wall_seconds(sim::Time now) const {
    return kSimEpochNtpSeconds + now.to_seconds() + offset_;
  }

  /// Offset from true time (seconds). 0 = perfectly synchronised.
  [[nodiscard]] double offset() const { return offset_; }

  /// Step the clock by `delta` seconds (positive = forward).
  void step(double delta) { offset_ += delta; }

  /// Gradual adjustment; the simulator applies it instantly. The name
  /// records the discipline's decision at the call site.
  void slew(double delta) { offset_ += delta; }

 private:
  double offset_;
};

}  // namespace dnstime::ntp
