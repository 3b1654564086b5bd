// ntpdate model: one-shot command-line synchroniser.
//
// Table I: boot-time attack only ("this utility is often used as part of a
// regularly run cronjob, so boot-time attacks against this client can be
// done any time the program is invoked" — §V-A2). Every run() is a fresh
// boot: resolve, query all returned servers, apply the median offset, exit.
#pragma once

#include "ntp/client_base.h"

namespace dnstime::ntp {

class NtpdateClient : public NtpClientBase {
 public:
  NtpdateClient(net::NetStack& stack, SystemClock& clock,
                ClientBaseConfig base_config);

  /// Launch one invocation; `on_done(applied_offset)` fires when it exits
  /// (applied_offset = 0.0 when no server answered).
  void run(std::function<void(double)> on_done);

  /// NtpClientBase interface: start == one cron invocation.
  void start() override;
  [[nodiscard]] std::string name() const override { return "ntpdate"; }
  [[nodiscard]] std::vector<Ipv4Addr> current_servers() const override {
    return last_servers_;
  }

 private:
  std::vector<Ipv4Addr> last_servers_;
};

}  // namespace dnstime::ntp
