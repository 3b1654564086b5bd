#include "attack/ratelimit_abuser.h"

#include <gtest/gtest.h>

#include <memory>

#include "ntp/server.h"
#include "obs/provenance.h"
#include "scenario/world.h"

namespace dnstime::attack {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

const Ipv4Addr kVictim{10, 77, 0, 1};

/// A bare attacker -> target path with a tap on the target: no NTP server
/// answers, so the flood's copies are the only packets sent or stamped.
/// add_target() adds further targets, tapped into the same arrival log.
struct FloodPath {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{41}};
  net::NetStack attacker{
      net, Ipv4Addr{10, 66, 0, 1},
      net::StackConfig{.origin_module = OriginModule::kAttacker}, Rng{42}};
  net::NetStack target{net, Ipv4Addr{10, 1, 0, 1}, net::StackConfig{},
                       Rng{43}};
  std::vector<std::unique_ptr<net::NetStack>> more_targets;
  std::vector<sim::Time> arrived_at;
  std::vector<net::Ipv4Packet> arrived;

  FloodPath() { tap(target); }

  Ipv4Addr add_target(Ipv4Addr addr) {
    const u64 seed = 44 + more_targets.size();
    tap(*more_targets.emplace_back(std::make_unique<net::NetStack>(
        net, addr, net::StackConfig{}, Rng{seed})));
    return addr;
  }

  /// When each packet addressed to `dst` arrived, in order.
  [[nodiscard]] std::vector<sim::Time> arrivals_at(Ipv4Addr dst) const {
    std::vector<sim::Time> at;
    for (std::size_t i = 0; i < arrived.size(); ++i) {
      if (arrived[i].dst == dst) at.push_back(arrived_at[i]);
    }
    return at;
  }

 private:
  void tap(net::NetStack& stack) {
    stack.add_packet_tap([this](const net::Ipv4Packet& pkt) {
      arrived_at.push_back(loop.now());
      arrived.push_back(pkt);
    });
  }
};

TEST(RateLimitAbuser, VictimPollsGoUnanswered) {
  World world;  // all pool servers rate-limit
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));
  EXPECT_GT(abuser.packets_spoofed(), 10u);

  // The victim's genuine poll from its real host address gets nothing.
  auto& victim = world.add_host(kVictim);
  bool answered = false;
  u16 port = victim.stack->ephemeral_port();
  victim.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                   const PacketBuf& payload) {
    try {
      if (!ntp::decode_ntp(payload).is_kod()) answered = true;
    } catch (const DecodeError&) {
    }
  });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp_buf(query));
  world.run_for(Duration::seconds(5));
  EXPECT_FALSE(answered);
}

TEST(RateLimitAbuser, NonLimitingServerUnaffected) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  auto& victim = world.add_host(kVictim);
  bool answered = false;
  u16 port = victim.stack->ephemeral_port();
  victim.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                   const PacketBuf&) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp_buf(query));
  world.run_for(Duration::seconds(5));
  EXPECT_TRUE(answered) << "servers without rate limiting cannot be abused";
}

TEST(RateLimitAbuser, OtherClientsCollateralFree) {
  // The flood punishes only the spoofed victim address; an unrelated
  // client keeps getting answers.
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  auto& bystander = world.add_host(Ipv4Addr{10, 78, 0, 1});
  bool answered = false;
  u16 port = bystander.stack->ephemeral_port();
  bystander.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                      const PacketBuf&) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  bystander.stack->send_udp(target, port, kNtpPort, encode_ntp_buf(query));
  world.run_for(Duration::seconds(5));
  EXPECT_TRUE(answered);
}

TEST(RateLimitAbuser, StopCeasesFlooding) {
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::seconds(10));
  u64 sent = abuser.packets_spoofed();
  abuser.stop();
  world.run_for(Duration::seconds(10));
  EXPECT_EQ(abuser.packets_spoofed(), sent);
  EXPECT_EQ(abuser.active_targets(), 0u);
}

TEST(RateLimitAbuser, EveryCopyIsTheFreshlyEncodedQuery) {
  FloodPath path;
  RateLimitAbuser abuser(path.attacker, kVictim);
  const Ipv4Addr server = path.target.addr();
  abuser.disrupt(server);
  path.loop.run_for(Duration::seconds(3));

  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 1.0;
  const PacketBuf fresh = net::encode_udp_buf(
      ntp::encode_ntp_buf(query), kNtpPort, kNtpPort, kVictim, server);
  ASSERT_GE(path.arrived.size(), 7u);
  for (const net::Ipv4Packet& pkt : path.arrived) {
    EXPECT_EQ(pkt.src, kVictim);
    EXPECT_EQ(pkt.dst, server);
    EXPECT_FALSE(pkt.is_fragment());
    EXPECT_EQ(pkt.payload, fresh);
  }
}

TEST(RateLimitAbuser, DisruptAllArmsOneTimer) {
  // One call is one stream: each round is one event, however many servers
  // it floods.
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  const std::vector<Ipv4Addr> servers = world.pool_server_addrs();
  ASSERT_EQ(servers.size(), 16u);
  const std::size_t before = world.loop().pending();
  abuser.disrupt_all(servers);
  EXPECT_EQ(world.loop().pending() - before, 2u)
      << "one delivery train and one tick, not one tick per server";
  world.run_for(Duration::seconds(10));
  EXPECT_EQ(abuser.packets_spoofed(), 16u * 26u);  // rounds at 0, 0.4 .. 10 s
  EXPECT_EQ(abuser.active_targets(), 16u);
}

TEST(RateLimitAbuser, StreamSendsEachRoundInListOrder) {
  // Every round sends in the order the call listed the servers, whatever
  // their address order.
  FloodPath path;
  const std::vector<Ipv4Addr> servers{path.add_target(Ipv4Addr{10, 1, 0, 3}),
                                      path.target.addr(),
                                      path.add_target(Ipv4Addr{10, 1, 0, 2})};
  RateLimitAbuser abuser(path.attacker, kVictim);
  abuser.disrupt_all(servers);
  path.loop.run_for(Duration::millis(2000));

  ASSERT_EQ(path.arrived.size(), 15u);  // rounds at 0, 0.4 .. 1.6 s
  for (std::size_t i = 0; i < path.arrived.size(); ++i) {
    EXPECT_EQ(path.arrived[i].dst, servers[i % 3]) << "arrival " << i;
    EXPECT_EQ(path.arrived_at[i] - path.arrived_at[0],
              Duration::millis(400) * static_cast<i64>(i / 3))
        << "arrival " << i;
  }
}

TEST(RateLimitAbuser, OneDatagramPer400msEvenAfterRepeatedDisrupt) {
  FloodPath path;
  RateLimitAbuser abuser(path.attacker, kVictim);
  const Ipv4Addr server = path.target.addr();
  const Ipv4Addr other = path.add_target(Ipv4Addr{10, 1, 0, 2});
  abuser.disrupt(server);
  path.loop.run_for(Duration::millis(1000));
  abuser.disrupt(server);  // already flooded: must not start a 2nd stream
  EXPECT_EQ(abuser.active_targets(), 1u);
  abuser.disrupt_all({server, other});  // a new stream for `other` alone
  path.loop.run_for(Duration::millis(2000));

  EXPECT_EQ(abuser.active_targets(), 2u);
  const std::vector<sim::Time> at_server = path.arrivals_at(server);
  const std::vector<sim::Time> at_other = path.arrivals_at(other);
  ASSERT_GE(at_server.size(), 7u);
  ASSERT_GE(at_other.size(), 5u);
  auto expect_400ms_apart = [](const std::vector<sim::Time>& at,
                               const char* who) {
    for (std::size_t i = 1; i < at.size(); ++i) {
      EXPECT_EQ(at[i] - at[i - 1], Duration::millis(400))
          << who << " arrival " << i;
    }
  };
  expect_400ms_apart(at_server, "server");
  expect_400ms_apart(at_other, "other");
  // Every packet sent has arrived except any still on the 10 ms link (the
  // two streams are 200 ms out of phase, so at most one).
  EXPECT_LE(abuser.packets_spoofed() - path.arrived.size(), 1u);
}

#if DNSTIME_OBS
TEST(RateLimitAbuser, SharedBytesDoNotShareTheStamp) {
  // Each copy is stamped as it leaves: spoofed, attacker-tagged, at its
  // own send time, and with the next draw of the trial's provenance
  // stream (a second recorder on the same stream predicts every seq).
  obs::FlightRecorder flight;
  flight.set_meta("test/flood-stamps", 1, 0, 0xF100D);
  obs::FlightRecorder expected;
  expected.set_meta("test/flood-stamps", 1, 0, 0xF100D);
  obs::ScopedFlightRecorder install(&flight);

  FloodPath path;
  RateLimitAbuser abuser(path.attacker, kVictim);
  abuser.disrupt(path.target.addr());
  path.loop.run_for(Duration::seconds(3));

  ASSERT_GE(path.arrived.size(), 7u);
  i64 last_ts = -1;
  for (const net::Ipv4Packet& pkt : path.arrived) {
    const Origin& o = pkt.payload.origin();
    EXPECT_TRUE(o.spoofed());
    EXPECT_EQ(o.module, OriginModule::kAttacker);
    EXPECT_GT(o.ts_ns, last_ts);
    EXPECT_EQ(o.seq,
              expected.stamp(o.ts_ns, OriginModule::kAttacker, Origin::kSpoofed)
                  .seq);
    last_ts = o.ts_ns;
  }
  EXPECT_EQ(flight.stamps(), abuser.packets_spoofed());
}
#endif

}  // namespace
}  // namespace dnstime::attack
