#include "ntp/client_base.h"

#include "ntp/poll_policy.h"

namespace dnstime::ntp {

NtpClientBase::NtpClientBase(net::NetStack& stack, SystemClock& clock,
                             ClientBaseConfig config)
    : stack_(stack),
      clock_(clock),
      config_(std::move(config)),
      stub_(stack, config_.resolver) {}

void NtpClientBase::poll_server(Ipv4Addr server, PollCallback cb) {
  u16 port = stack_.ephemeral_port();
  double t1 = clock_.wall_seconds(stack_.now());

  auto done = std::make_shared<bool>(false);
  auto finish = [this, port, done, cb](const PollResult& result) {
    if (*done) return;
    *done = true;
    stack_.unbind_udp(port);
    cb(result);
  };

  stack_.bind_udp(port, [this, t1, server, finish](
                            const net::UdpEndpoint& from, u16,
                            BufView payload) {
    if (from.addr != server || from.port != kNtpPort) return;
    NtpPacket resp;
    try {
      resp = decode_ntp(payload);
    } catch (const DecodeError&) {
      return;
    }
    if (resp.mode != Mode::kServer) return;
    PollResult result;
    result.packet = resp;
    if (resp.is_rate_kod()) {
      result.kod = true;
      finish(result);
      return;
    }
    // Origin-timestamp check: the response must echo our T1 (RFC 5905;
    // this is NTP's own off-path defence — our attack never has to beat
    // it because the client *willingly* queries the attacker's server).
    if (resp.org_time != t1) return;
    double t4 = clock_.wall_seconds(stack_.now());
    result.responded = true;
    result.offset = ((resp.rx_time - t1) + (resp.tx_time - t4)) / 2.0;
    result.delay = (t4 - t1) - (resp.tx_time - resp.rx_time);
    finish(result);
  });

  NtpPacket query;
  query.mode = Mode::kClient;
  query.tx_time = t1;
  stack_.send_udp(server, port, kNtpPort, encode_ntp_buf(query));

  stack_.loop().schedule_after(config_.poll_timeout,
                               [finish] { finish(PollResult{}); });
}

void NtpClientBase::collect_offsets(
    const std::vector<Ipv4Addr>& servers,
    std::function<void(std::vector<double>)> done) {
  if (servers.empty()) {
    done({});
    return;
  }
  auto offsets = std::make_shared<std::vector<double>>();
  auto outstanding = std::make_shared<std::size_t>(servers.size());
  for (Ipv4Addr server : servers) {
    poll_server(server, [offsets, outstanding, done](const PollResult& r) {
      if (r.responded) offsets->push_back(r.offset);
      if (--*outstanding == 0) done(std::move(*offsets));
    });
  }
}

void NtpClientBase::resolve(const std::string& domain,
                            dns::StubResolver::Callback cb) {
  stub_.resolve(dns::DnsName::from_string(domain), dns::RrType::kA,
                std::move(cb));
}

bool NtpClientBase::discipline(double offset, bool at_boot) {
  const PollPolicy policy{.step_threshold = config_.step_threshold,
                          .panic_threshold = config_.panic_threshold,
                          .allow_panic_at_boot = config_.allow_panic_at_boot};
  switch (classify_offset(offset, at_boot, policy)) {
    case OffsetAction::kNone:
      return false;
    case OffsetAction::kSlew:
      clock_.slew(offset, stack_.now());
      return true;
    case OffsetAction::kStep:
      clock_.step(offset, stack_.now());
      return true;
    case OffsetAction::kRefuse:
      return false;  // panic: refuse
  }
  return false;
}

}  // namespace dnstime::ntp
