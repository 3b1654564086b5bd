#include "ntp/clients/ntpdate.h"

#include "common/stats.h"

namespace dnstime::ntp {

NtpdateClient::NtpdateClient(net::NetStack& stack, SystemClock& clock,
                             ClientBaseConfig base_config)
    : NtpClientBase(stack, clock, std::move(base_config)) {}

void NtpdateClient::start() {
  run([](double) {});
}

void NtpdateClient::run(std::function<void(double)> on_done) {
  resolve([this, on_done](const std::vector<dns::ResourceRecord>& answers) {
    last_servers_.clear();
    for (const auto& rr : answers) last_servers_.push_back(rr.a);
    collect_offsets(last_servers_,
                    [this, on_done](std::vector<double> offsets) {
                      if (offsets.empty()) {
                        on_done(0.0);
                        return;
                      }
                      double combined = median(std::move(offsets));
                      // ntpdate -b: always step, no panic limit.
                      clock_.step(combined, stack_.now());
                      on_done(combined);
                    });
  });
}

}  // namespace dnstime::ntp
