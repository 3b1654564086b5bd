#include "ntp/clients/sntp_timesyncd.h"

namespace dnstime::ntp {

TimesyncdClient::TimesyncdClient(net::NetStack& stack, SystemClock& clock,
                                 ClientBaseConfig base_config,
                                 TimesyncdConfig config)
    : NtpClientBase(stack, clock, std::move(base_config)),
      config_tsd_(config) {}

void TimesyncdClient::start() { lookup_and_restart(); }

std::vector<Ipv4Addr> TimesyncdClient::current_servers() const {
  return server_list_;
}

void TimesyncdClient::lookup_and_restart() {
  if (lookup_in_flight_) return;
  lookup_in_flight_ = true;
  lookups_++;
  resolve(config_.pool_domains.front(),
          [this](const std::vector<dns::ResourceRecord>& answers) {
            lookup_in_flight_ = false;
            server_list_.clear();
            for (const auto& rr : answers) server_list_.push_back(rr.a);
            index_ = 0;
            failures_ = 0;
            if (server_list_.empty()) {
              // DNS failed: back off and retry the lookup.
              stack_.loop().schedule_after(sim::Duration::seconds(30),
                                           [this] { lookup_and_restart(); });
              return;
            }
            poll_once();
          });
}

void TimesyncdClient::poll_once() {
  if (server_list_.empty()) {
    lookup_and_restart();
    return;
  }
  Ipv4Addr server = server_list_[index_];
  poll_server(server, [this](const PollResult& r) {
    if (r.responded) {
      failures_ = 0;
      // SNTP: apply every response directly (timesyncd steps large
      // offsets regardless of uptime).
      discipline(r.offset, /*at_boot=*/true);
      stack_.loop().schedule_after(config_.poll_interval,
                                   [this] { poll_once(); });
      return;
    }
    // Timeout or KoD: count a failure against the current server.
    if (++failures_ >= config_tsd_.retries_per_server) {
      failures_ = 0;
      index_++;
      if (index_ >= server_list_.size()) {
        // Cached list exhausted -> the run-time DNS query the attacker
        // wants to trigger.
        lookup_and_restart();
        return;
      }
    }
    stack_.loop().schedule_after(config_.poll_interval / 4,
                                 [this] { poll_once(); });
  });
}

}  // namespace dnstime::ntp
