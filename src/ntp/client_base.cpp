#include "ntp/client_base.h"

#include "dns/pool_zone.h"
#include "ntp/poll_policy.h"

namespace dnstime::ntp {

NtpClientBase::NtpClientBase(net::NetStack& stack, SystemClock& clock,
                             ClientBaseConfig config)
    : stack_(stack),
      clock_(clock),
      config_(std::move(config)),
      stub_(stack, config_.resolver) {}

void poll_server(net::NetStack& stack, const SystemClock& clock,
                 Ipv4Addr server, PollCallback cb) {
  const u16 port = stack.ephemeral_port();
  const double t1 = clock.wall_seconds(stack.now());

  auto done = std::make_shared<bool>(false);
  auto finish = [&stack, port, done, cb = std::move(cb)](
                    const PollResult& result) {
    if (*done) return;
    *done = true;
    stack.unbind_udp(port);
    cb(result);
  };

  stack.bind_udp(port, [&stack, &clock, t1, server, finish](
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
    if (resp.is_rate_kod()) {
      result.kod = true;
      finish(result);
      return;
    }
    // Origin-timestamp check: the response must echo our T1 (RFC 5905;
    // this is NTP's own off-path defence — our attack never has to beat
    // it because the client *willingly* queries the attacker's server).
    if (resp.org_time != t1) return;
    const double t4 = clock.wall_seconds(stack.now());
    result.responded = true;
    result.offset = ((resp.rx_time - t1) + (resp.tx_time - t4)) / 2.0;
    result.delay = (t4 - t1) - (resp.tx_time - resp.rx_time);
    finish(result);
  });

  NtpPacket query;
  query.mode = Mode::kClient;
  query.tx_time = t1;
  stack.send_udp(server, port, kNtpPort, encode_ntp_buf(query));

  stack.loop().schedule_after(kPollTimeout,
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
    poll_server(stack_, clock_, server,
                [offsets, outstanding, done](const PollResult& r) {
                  if (r.responded) offsets->push_back(r.offset);
                  if (--*outstanding == 0) done(std::move(*offsets));
                });
  }
}

void NtpClientBase::resolve(dns::StubResolver::Callback cb) {
  stub_.resolve(dns::pool_name(), dns::RrType::kA, std::move(cb));
}

bool NtpClientBase::discipline(double offset, bool at_boot) {
  switch (classify_offset(offset, at_boot)) {
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
