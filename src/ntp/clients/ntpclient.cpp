#include "ntp/clients/ntpclient.h"

namespace dnstime::ntp {

NtpclientClient::NtpclientClient(net::NetStack& stack, SystemClock& clock,
                                 ClientBaseConfig base_config)
    : NtpClientBase(stack, clock, std::move(base_config)) {}

void NtpclientClient::start() {
  resolve([this](const std::vector<dns::ResourceRecord>& answers) {
    if (!answers.empty()) server_ = answers.front().a;
    poll_loop();
  });
}

void NtpclientClient::poll_loop() {
  if (server_) {
    poll_server(stack_, clock_, *server_, [this](const PollResult& r) {
      if (r.responded) {
        discipline(r.offset, !first_sync_done_);
        first_sync_done_ = true;
      }
      // No response: nothing to do — the server address is fixed forever.
    });
  }
  stack_.loop().schedule_after(config_.poll_interval,
                               [this] { poll_loop(); });
}

AndroidSntpClient::AndroidSntpClient(net::NetStack& stack, SystemClock& clock,
                                     ClientBaseConfig base_config)
    : NtpClientBase(stack, clock, std::move(base_config)) {}

void AndroidSntpClient::start() { sync_once(); }

void AndroidSntpClient::sync_once() {
  // Fresh hostname resolution per sync — the defining behaviour.
  resolve([this](const std::vector<dns::ResourceRecord>& answers) {
    if (answers.empty()) {
      stack_.loop().schedule_after(config_.poll_interval,
                                   [this] { sync_once(); });
      return;
    }
    last_server_ = answers.front().a;
    poll_server(stack_, clock_, *last_server_, [this](const PollResult& r) {
      if (r.responded) {
        // SNTP: apply directly, steps allowed.
        discipline(r.offset, /*at_boot=*/true);
      }
      stack_.loop().schedule_after(config_.poll_interval,
                                   [this] { sync_once(); });
    });
  });
}

}  // namespace dnstime::ntp
