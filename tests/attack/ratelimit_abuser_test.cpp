#include "attack/ratelimit_abuser.h"

#include <gtest/gtest.h>

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
struct FloodPath {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{41}};
  net::NetStack attacker{
      net, Ipv4Addr{10, 66, 0, 1},
      net::StackConfig{.origin_module = OriginModule::kAttacker}, Rng{42}};
  net::NetStack target{net, Ipv4Addr{10, 1, 0, 1}, net::StackConfig{},
                       Rng{43}};
  std::vector<sim::Time> arrived_at;
  std::vector<net::Ipv4Packet> arrived;

  FloodPath() {
    target.add_packet_tap([this](const net::Ipv4Packet& pkt) {
      arrived_at.push_back(loop.now());
      arrived.push_back(pkt);
    });
  }
};

TEST(RateLimitAbuser, VictimBecomesLimitedAtTargetServer) {
  World world;  // all pool servers rate-limit
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));
  EXPECT_TRUE(world.pool_server(0).rate_limiter().is_limited(
      kVictim, world.loop().now()));
  EXPECT_GT(abuser.packets_spoofed(), 10u);
}

TEST(RateLimitAbuser, VictimPollsGoUnanswered) {
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  // The victim's genuine poll from its real host address gets nothing.
  auto& victim = world.add_host(kVictim);
  bool answered = false;
  u16 port = victim.stack->ephemeral_port();
  victim.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                   BufView payload) {
    try {
      if (!ntp::decode_ntp(payload).is_kod()) answered = true;
    } catch (const DecodeError&) {
    }
  });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
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
                                   BufView) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
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
                                      BufView) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  bystander.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
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

TEST(RateLimitAbuser, OneDatagramPer400msEvenAfterRepeatedDisrupt) {
  FloodPath path;
  RateLimitAbuser abuser(path.attacker, kVictim);
  const Ipv4Addr server = path.target.addr();
  abuser.disrupt(server);
  path.loop.run_for(Duration::millis(1000));
  abuser.disrupt(server);  // already flooded: must not start a 2nd stream
  path.loop.run_for(Duration::millis(2000));

  EXPECT_EQ(abuser.active_targets(), 1u);
  ASSERT_GE(path.arrived_at.size(), 7u);
  for (std::size_t i = 1; i < path.arrived_at.size(); ++i) {
    EXPECT_EQ(path.arrived_at[i] - path.arrived_at[i - 1],
              Duration::millis(400))
        << "arrival " << i;
  }
  // Every packet sent has arrived except any still on the 10 ms link.
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
