#include "attack/ipid_predictor.h"

#include <gtest/gtest.h>

#include "scenario/world.h"

namespace dnstime::attack {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

TEST(IpidProber, PredictsQuietNameserver) {
  World world;
  IpidProber prober(world.attacker(), world.pool_ns_addr(),
                    IpidProber::Config{});
  std::optional<IpidPrediction> got;
  prober.run([&](const IpidPrediction& p) { got = p; });
  world.run_for(Duration::seconds(10));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->valid);
  EXPECT_NEAR(got->rate_per_second, 0.0, 0.5);  // no background traffic
  // The next response's IPID is the observed one plus one.
  EXPECT_EQ(got->predict_at(world.loop().now()),
            static_cast<u16>(got->last_observed + 1));
}

TEST(IpidProber, TracksBackgroundTrafficRate) {
  World world;
  // Background load: a chatty host queries the pool NS 4 times a second.
  auto& chatty = world.add_host(Ipv4Addr{10, 99, 0, 1});
  net::NetStack* chatty_stack = chatty.stack.get();
  Ipv4Addr ns = world.pool_ns_addr();
  std::function<void()> tick = [&world, chatty_stack, ns, &tick] {
    dns::DnsMessage q;
    q.id = chatty_stack->rng().next_u16();
    q.questions = {dns::DnsQuestion{
        dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA}};
    chatty_stack->send_udp(ns, chatty_stack->ephemeral_port(), kDnsPort,
                           encode_dns_buf(q));
    world.loop().schedule_after(Duration::millis(250), tick);
  };
  tick();

  IpidProber::Config pc;
  pc.probes = 8;
  IpidProber prober(world.attacker(), ns, pc);
  std::optional<IpidPrediction> got;
  prober.run([&](const IpidPrediction& p) { got = p; });
  world.run_for(Duration::seconds(15));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->valid);
  EXPECT_NEAR(got->rate_per_second, 4.0, 1.5);
}

TEST(IpidProber, RandomizedIpidYieldsGarbageRate) {
  WorldConfig wc;
  wc.ns_stack.ipid_mode = net::IpidMode::kRandom;
  World world(wc);
  IpidProber prober(world.attacker(), world.pool_ns_addr(),
                    IpidProber::Config{});
  std::optional<IpidPrediction> got;
  prober.run([&](const IpidPrediction& p) { got = p; });
  world.run_for(Duration::seconds(10));
  ASSERT_TRUE(got.has_value());
  // The fit "succeeds" but extrapolates nonsense — random deltas average
  // thousands of increments per second.
  EXPECT_GT(got->rate_per_second, 100.0);
}

TEST(SprayWindow, CoversConsecutiveValuesFromPrediction) {
  IpidPrediction p;
  p.valid = true;
  p.last_observed = 1000;
  p.observed_at = sim::Time{};
  p.rate_per_second = 2.0;
  auto window =
      spray_window(p, sim::Time{} + Duration::seconds(10), 8);
  ASSERT_EQ(window.size(), 8u);
  EXPECT_EQ(window.front(), 1021);  // 1000 + 2*10 + 1
  for (std::size_t i = 1; i < window.size(); ++i) {
    EXPECT_EQ(window[i], static_cast<u16>(window[i - 1] + 1));
  }
}

TEST(SprayWindow, WrapsAroundSixteenBits) {
  IpidPrediction p;
  p.valid = true;
  p.last_observed = 0xFFFE;
  p.observed_at = sim::Time{};
  p.rate_per_second = 0.0;
  auto window = spray_window(p, sim::Time{}, 4);
  EXPECT_EQ(window[0], 0xFFFF);
  EXPECT_EQ(window[1], 0x0000);  // wrapped
}

}  // namespace
}  // namespace dnstime::attack
