// systemd-timesyncd client model (SNTP).
//
// §V-B3: "it holds only a single association to one NTP server but caches
// the list of servers from the last DNS query, which by default contains 3
// more server addresses additional to the one used. As these servers will
// be queried before a DNS query is triggered, the attacker is required to
// attack associations to all of them" — run-time probability P1(4).
#pragma once

#include "ntp/client_base.h"

namespace dnstime::ntp {

class TimesyncdClient : public NtpClientBase {
 public:
  TimesyncdClient(net::NetStack& stack, SystemClock& clock,
                  ClientBaseConfig base_config);

  void start() override;
  [[nodiscard]] std::string name() const override {
    return "systemd-timesyncd";
  }
  [[nodiscard]] std::vector<Ipv4Addr> current_servers() const override;

  [[nodiscard]] u64 dns_lookups() const { return lookups_; }

 private:
  void lookup_and_restart();
  void poll_once();

  std::vector<Ipv4Addr> server_list_;  ///< cached from the last DNS answer
  std::size_t index_ = 0;
  int failures_ = 0;
  bool lookup_in_flight_ = false;
  u64 lookups_ = 0;
};

}  // namespace dnstime::ntp
