// Client-side association state for one NTP server, including the 8-bit
// reachability shift register (RFC 5905 §9.2) whose draining is what the
// run-time attack induces.
#pragma once

#include <deque>
#include <optional>

#include "common/types.h"

namespace dnstime::ntp {

class Association {
 public:
  explicit Association(Ipv4Addr addr) : addr_(addr) {}

  [[nodiscard]] Ipv4Addr addr() const { return addr_; }

  /// Record a poll being sent: shifts the reachability register left.
  void on_poll_sent();
  /// Record a usable mode-4 response with the measured offset/delay. A
  /// Kiss-o'-Death is no response: it leaves the register draining.
  void on_response(double offset, double delay);

  [[nodiscard]] bool reachable() const { return reach_ != 0; }
  /// Polls sent since the last response.
  [[nodiscard]] int unanswered_polls() const { return unanswered_; }

  /// Clock-filtered offset: the sample with minimum delay among the last 8
  /// (RFC 5905 clock filter essence). Ties prefer the newest sample.
  [[nodiscard]] std::optional<double> filtered_offset() const;

  /// Drop accumulated samples. Clients call this after stepping the local
  /// clock — pre-step samples are measured against a clock that no longer
  /// exists (ntpd likewise clears its filter registers on a step).
  void clear_samples() { samples_.clear(); }

 private:
  struct Sample {
    double offset;
    double delay;
  };
  Ipv4Addr addr_;
  u8 reach_ = 0;
  int unanswered_ = 0;
  std::deque<Sample> samples_;
};

}  // namespace dnstime::ntp
