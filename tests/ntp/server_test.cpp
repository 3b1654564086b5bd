#include "ntp/server.h"

#include <gtest/gtest.h>

namespace dnstime::ntp {
namespace {

using sim::Duration;

struct ServerWorld {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{31}};
  net::NetStack server_stack{net, Ipv4Addr{10, 1, 0, 1}, net::StackConfig{},
                             Rng{32}};
  net::NetStack client_stack{net, Ipv4Addr{10, 2, 0, 1}, net::StackConfig{},
                             Rng{33}};
  SystemClock server_clock{0.0};

  std::optional<NtpPacket> query_once(double client_wall = 100.0) {
    std::optional<NtpPacket> got;
    u16 port = client_stack.ephemeral_port();
    client_stack.bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                    const PacketBuf& payload) {
      got = decode_ntp(payload);
    });
    NtpPacket q;
    q.mode = Mode::kClient;
    q.tx_time = client_wall;
    client_stack.send_udp(server_stack.addr(), port, kNtpPort,
                          encode_ntp_buf(q));
    loop.run_for(Duration::seconds(1));
    client_stack.unbind_udp(port);
    return got;
  }
};

TEST(NtpServer, AnswersModeThreeWithServerTime) {
  ServerWorld w;
  NtpServer server(w.server_stack, w.server_clock, ServerConfig{});
  auto resp = w.query_once(123.5);
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->mode, Mode::kServer);
  EXPECT_EQ(resp->stratum, 2);
  EXPECT_NEAR(resp->org_time, 123.5, 1e-6);  // echoes our T1
  EXPECT_NEAR(resp->tx_time, kSimEpochNtpSeconds, 1.0);
}

TEST(NtpServer, AttackerServerServesShiftedTime) {
  ServerWorld w;
  ServerConfig cfg;
  cfg.time_shift = -500.0;
  NtpServer server(w.server_stack, w.server_clock, cfg);
  auto resp = w.query_once();
  ASSERT_TRUE(resp);
  EXPECT_NEAR(resp->tx_time, kSimEpochNtpSeconds - 500.0, 1.0);
}

TEST(NtpServer, RateLimitedClientGetsKodThenNothing) {
  ServerWorld w;
  ServerConfig cfg;
  cfg.rate_limit.enabled = true;
  cfg.rate_limit.burst = 1;  // tiny burst so the pattern shows immediately
  NtpServer server(w.server_stack, w.server_clock, cfg);
  auto r1 = w.query_once();
  ASSERT_TRUE(r1);
  EXPECT_FALSE(r1->is_kod());
  auto r2 = w.query_once();  // ~1s later: bucket empty
  ASSERT_TRUE(r2);
  EXPECT_TRUE(r2->is_rate_kod());
  auto r3 = w.query_once();
  EXPECT_FALSE(r3.has_value());  // silence
  EXPECT_GT(server.dropped_rate_limited(), 0u);
}

TEST(NtpServer, ShortAndNonClientDatagramsNeverChargeTheLimiter) {
  // With burst = 1, one charged arrival would empty the bucket, so the
  // genuine query a second later would get a KoD (or nothing). Short and
  // mode-4 datagrams must be refused before the limiter is asked.
  ServerWorld w;
  ServerConfig cfg;
  cfg.rate_limit.enabled = true;
  cfg.rate_limit.burst = 1;
  NtpServer server(w.server_stack, w.server_clock, cfg);

  NtpPacket client;
  client.mode = Mode::kClient;
  Bytes short_query = encode_ntp_buf(client).to_bytes();
  short_query.resize(47);
  NtpPacket reply;
  reply.mode = Mode::kServer;
  reply.stratum = 2;
  const std::vector<Bytes> junk = {
      short_query, encode_ntp_buf(reply).to_bytes(),
      Bytes{0x23}};  // a client LVM octet and nothing else
  for (int i = 0; i < 3; ++i) {
    for (const Bytes& dgram : junk) {
      w.client_stack.send_udp(w.server_stack.addr(), 4000, kNtpPort, dgram);
    }
  }
  w.loop.run_for(Duration::seconds(1));

  auto resp = w.query_once();
  ASSERT_TRUE(resp);
  EXPECT_FALSE(resp->is_kod());
  EXPECT_EQ(server.dropped_rate_limited(), 0u);
}

TEST(NtpServer, RefidLeaksUpstreamAddress) {
  ServerWorld w;
  NtpServer server(w.server_stack, w.server_clock, ServerConfig{});
  server.set_upstream(Ipv4Addr{10, 10, 0, 5});
  auto resp = w.query_once();
  ASSERT_TRUE(resp);
  EXPECT_EQ(Ipv4Addr{resp->refid}, (Ipv4Addr{10, 10, 0, 5}));
}

TEST(NtpServer, ConfigInterfaceClosedByDefault) {
  ServerWorld w;
  NtpServer server(w.server_stack, w.server_clock, ServerConfig{});
  server.set_upstream(Ipv4Addr{10, 10, 0, 5});
  bool got = false;
  u16 port = w.client_stack.ephemeral_port();
  w.client_stack.bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                    const PacketBuf&) { got = true; });
  w.client_stack.send_udp(w.server_stack.addr(), port, kNtpPort,
                          encode_config_request());
  w.loop.run_for(Duration::seconds(1));
  EXPECT_FALSE(got);
}

TEST(NtpServer, OpenConfigInterfaceLeaksEverything) {
  // The 5.3% of §IV-B2c.
  ServerWorld w;
  ServerConfig cfg;
  cfg.open_config_interface = true;
  cfg.configured_hostname = "0.pool.ntp.org";
  NtpServer server(w.server_stack, w.server_clock, cfg);
  server.set_upstream(Ipv4Addr{10, 10, 0, 5});
  std::optional<ConfigResponse> got;
  u16 port = w.client_stack.ephemeral_port();
  w.client_stack.bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                    const PacketBuf& payload) {
    got = decode_config_response(payload);
  });
  w.client_stack.send_udp(w.server_stack.addr(), port, kNtpPort,
                          encode_config_request());
  w.loop.run_for(Duration::seconds(1));
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->upstream_addrs.size(), 1u);
  EXPECT_EQ(got->upstream_addrs[0], (Ipv4Addr{10, 10, 0, 5}));
  EXPECT_EQ(got->configured_hostname, "0.pool.ntp.org");
}

}  // namespace
}  // namespace dnstime::ntp
