// The mode-3 poll transaction that every NTP client model and the
// population fleet share (ntp::poll_server), driven against a scripted
// server stack that answers each query with hand-made replies.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "ntp/client_base.h"

namespace dnstime::ntp {
namespace {

using sim::Duration;

struct PollWorld {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{41}};
  net::NetStack client{net, Ipv4Addr{10, 2, 0, 1}, net::StackConfig{},
                       Rng{42}};
  net::NetStack server{net, Ipv4Addr{10, 1, 0, 1}, net::StackConfig{},
                       Rng{43}};
  net::NetStack other{net, Ipv4Addr{10, 1, 0, 2}, net::StackConfig{},
                      Rng{44}};
  SystemClock clock{0.0};
  std::vector<PollResult> results;
  double t4 = 0.0;  ///< client wall time when the last result arrived

  using Script =
      std::function<void(const NtpPacket& query, const net::UdpEndpoint&)>;

  /// Poll the server at t = 0; `script` runs when the query arrives there.
  void poll(Script script) {
    server.bind_udp(kNtpPort, [script](const net::UdpEndpoint& from, u16,
                                       const PacketBuf& payload) {
      script(decode_ntp(payload), from);
    });
    poll_server(client, clock, server.addr(), [this](const PollResult& r) {
      results.push_back(r);
      t4 = clock.wall_seconds(client.now());
    });
    loop.run_for(Duration::seconds(10));
  }

  /// A mode-4 reply echoing `org` whose server receive and transmit time
  /// is `t`.
  static NtpPacket reply(double org, double t) {
    NtpPacket p;
    p.mode = Mode::kServer;
    p.stratum = 2;
    p.org_time = org;
    p.rx_time = t;
    p.tx_time = t;
    return p;
  }

  static void send(net::NetStack& from, u16 from_port,
                   const net::UdpEndpoint& to, const NtpPacket& p) {
    from.send_udp(to.addr, from_port, to.port, encode_ntp_buf(p));
  }
};

TEST(PollTransaction, ReplyWithAnotherOriginIsIgnored) {
  PollWorld w;
  double t1 = 0.0;
  w.poll([&](const NtpPacket& q, const net::UdpEndpoint& from) {
    t1 = q.tx_time;
    // An off-path forgery that does not echo T1 arrives first...
    PollWorld::send(w.server, kNtpPort, from,
                    PollWorld::reply(t1 + 1.0, t1 + 500.0));
    // ...then the genuine reply, 7 s ahead of the client.
    w.loop.schedule_after(Duration::millis(100), [&w, &t1, from] {
      PollWorld::send(w.server, kNtpPort, from,
                      PollWorld::reply(t1, t1 + 7.0));
    });
  });
  ASSERT_EQ(w.results.size(), 1u);
  const PollResult& r = w.results.front();
  EXPECT_TRUE(r.responded);
  EXPECT_FALSE(r.kod);
  EXPECT_NEAR(r.delay, w.t4 - t1, 1e-6);
  EXPECT_NEAR(r.offset, 7.0 - r.delay / 2.0, 1e-6);
}

TEST(PollTransaction, RepliesFromAnotherPortAddressOrModeAreIgnored) {
  PollWorld w;
  double t1 = 0.0;
  w.poll([&](const NtpPacket& q, const net::UdpEndpoint& from) {
    t1 = q.tx_time;
    PollWorld::send(w.server, 1234, from, PollWorld::reply(t1, t1 + 100.0));
    PollWorld::send(w.other, kNtpPort, from,
                    PollWorld::reply(t1, t1 + 200.0));
    NtpPacket broadcast = PollWorld::reply(t1, t1 + 300.0);
    broadcast.mode = Mode::kBroadcast;
    PollWorld::send(w.server, kNtpPort, from, broadcast);
    w.server.send_udp(from.addr, kNtpPort, from.port, Bytes{1, 2, 3});
    w.loop.schedule_after(Duration::millis(100), [&w, &t1, from] {
      PollWorld::send(w.server, kNtpPort, from,
                      PollWorld::reply(t1, t1 + 7.0));
    });
  });
  ASSERT_EQ(w.results.size(), 1u);
  const PollResult& r = w.results.front();
  EXPECT_TRUE(r.responded);
  EXPECT_NEAR(r.offset, 7.0 - (w.t4 - t1) / 2.0, 1e-6);
}

TEST(PollTransaction, KissOfDeathYieldsKodWithoutAnOffset) {
  PollWorld w;
  w.poll([&](const NtpPacket& q, const net::UdpEndpoint& from) {
    NtpPacket kod = PollWorld::reply(q.tx_time, q.tx_time + 9.0);
    kod.stratum = 0;
    kod.refid = kKodRate;
    PollWorld::send(w.server, kNtpPort, from, kod);
  });
  ASSERT_EQ(w.results.size(), 1u);
  EXPECT_TRUE(w.results.front().kod);
  EXPECT_FALSE(w.results.front().responded);
  EXPECT_EQ(w.results.front().offset, 0.0);
}

TEST(PollTransaction, SilenceTimesOutOnceAndALateReplyIsDropped) {
  PollWorld w;
  w.poll([&](const NtpPacket& q, const net::UdpEndpoint& from) {
    w.loop.schedule_after(kPollTimeout + Duration::seconds(1),
                          [&w, from, t1 = q.tx_time] {
                            PollWorld::send(w.server, kNtpPort, from,
                                            PollWorld::reply(t1, t1 + 7.0));
                          });
  });
  ASSERT_EQ(w.results.size(), 1u);
  EXPECT_FALSE(w.results.front().responded);
  EXPECT_FALSE(w.results.front().kod);
  EXPECT_NEAR(w.t4 - w.clock.wall_seconds(sim::Time{}),
              kPollTimeout.to_seconds(), 1e-6);
  EXPECT_EQ(w.client.udp_rx(), 1u);  // the late reply did reach the host
}

}  // namespace
}  // namespace dnstime::ntp
