// Chronos-enhanced NTP client (§VI).
//
// Couples the PoolBuilder (24 hourly DNS queries) with the trim-select
// algorithm: each update samples m servers uniformly from the collected
// pool, polls them, and feeds the offsets through chronos_trim_select with
// re-sampling and the panic fallback. The client is provably robust
// against a MitM flipping some NTP responses — and, as the paper shows,
// still falls to an attacker who owns > 2/3 of the *pool* via DNS.
#pragma once

#include <memory>

#include "chronos/pool_builder.h"
#include "chronos/selection.h"
#include "ntp/client_base.h"

namespace dnstime::chronos {

struct ChronosClientConfig {
  ChronosParams params;
  PoolBuilderConfig pool;
  /// Update cadence once the pool has at least `sample_size` servers.
  sim::Duration update_interval = sim::Duration::seconds(64);
};

class ChronosClient : public ntp::NtpClientBase {
 public:
  ChronosClient(net::NetStack& stack, ntp::SystemClock& clock,
                ntp::ClientBaseConfig base_config,
                ChronosClientConfig config = {});

  void start() override;
  [[nodiscard]] std::string name() const override { return "chronos"; }
  [[nodiscard]] std::vector<Ipv4Addr> current_servers() const override {
    return builder_.pool();
  }

  [[nodiscard]] const PoolBuilder& pool_builder() const { return builder_; }
  [[nodiscard]] u64 updates_accepted() const { return accepted_; }
  [[nodiscard]] u64 updates_rejected() const { return rejected_; }
  [[nodiscard]] u64 panics() const { return panics_; }

 private:
  void update_once(int retries_left);
  void schedule_next();

  ChronosClientConfig config_chronos_;
  PoolBuilder builder_;
  u64 accepted_ = 0;
  u64 rejected_ = 0;
  u64 panics_ = 0;
};

}  // namespace dnstime::chronos
