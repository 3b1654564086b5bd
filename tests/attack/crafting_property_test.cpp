// Parameterized property sweep of the §III pipeline: for every MTU the
// attacker might induce and a range of zone shapes, a crafted fragment
// must either be refused (attack impossible) or splice into the genuine
// response with a verifying UDP checksum and redirected glue.
#include <gtest/gtest.h>

#include "attack/fragment_crafter.h"
#include "dns/pool_zone.h"
#include "net/fragmentation.h"
#include "net/reassembly.h"
#include "net/udp.h"

namespace dnstime::attack {
namespace {

const Ipv4Addr kNs{198, 51, 100, 53};
const Ipv4Addr kResolver{10, 53, 0, 1};
const Ipv4Addr kEvil{6, 6, 6, 53};

struct CraftCase {
  u16 mtu;
  std::size_t pad;
  std::size_t ns_count;
};

class CraftSweep : public ::testing::TestWithParam<CraftCase> {};

INSTANTIATE_TEST_SUITE_P(
    MtuAndShape, CraftSweep,
    ::testing::Values(CraftCase{296, 80, 3}, CraftCase{296, 200, 3},
                      CraftCase{548, 400, 3}, CraftCase{548, 600, 2},
                      CraftCase{296, 80, 1}, CraftCase{232, 40, 3},
                      CraftCase{1280, 1400, 3}, CraftCase{296, 0, 3},
                      CraftCase{548, 0, 3}, CraftCase{68, 80, 3}),
    [](const auto& info) {
      return "mtu" + std::to_string(info.param.mtu) + "_pad" +
             std::to_string(info.param.pad) + "_ns" +
             std::to_string(info.param.ns_count);
    });

TEST_P(CraftSweep, CraftedFragmentSplicesOrRefuses) {
  const CraftCase& tc = GetParam();
  dns::PoolZone::Config cfg;
  cfg.pad_txt_bytes = tc.pad;
  for (std::size_t i = 0; i < tc.ns_count; ++i) {
    cfg.nameservers.emplace_back(
        dns::DnsName::from_string("ns" + std::to_string(i + 1) + ".ntp.org"),
        kNs);
  }
  std::vector<Ipv4Addr> servers;
  for (u32 i = 1; i <= 16; ++i) servers.push_back(Ipv4Addr{0x0A0A0000 + i});
  dns::PoolZone zone(dns::DnsName::from_string("pool.ntp.org"), servers,
                     cfg);
  dns::DnsQuestion q{dns::DnsName::from_string("pool.ntp.org"),
                     dns::RrType::kA};

  dns::DnsMessage template_msg = zone.peek_response(q);
  const PacketBuf template_wire = encode_dns_buf(template_msg);

  CraftConfig cc;
  cc.ns_addr = kNs;
  cc.resolver_addr = kResolver;
  cc.mtu = tc.mtu;
  cc.malicious_addrs = {kEvil};
  auto crafted = craft_spoofed_second_fragment(template_wire, cc);
  if (!crafted) return;  // refusal is an acceptable outcome

  // Victim-bound genuine response at a different rotation and TXID.
  zone.set_rotation(4);
  dns::DnsMessage victim_msg = zone.peek_response(q);
  victim_msg.id = 0x4242;
  net::Ipv4Packet full;
  full.src = kNs;
  full.dst = kResolver;
  full.id = 0x77;
  full.protocol = net::kProtoUdp;
  full.payload = net::encode_udp_buf(encode_dns_buf(victim_msg), 53, 5555,
                                     kNs, kResolver);
  auto frags = net::fragment(full, tc.mtu);
  ASSERT_GE(frags.size(), 2u);
  // The crafter targets two-fragment splits; with more fragments the
  // spoofed tail cannot cover the datagram — skip those shapes.
  if (frags.size() != 2) return;

  net::ReassemblyCache cache;
  net::Ipv4Packet spoofed = crafted->fragment;
  spoofed.id = full.id;
  (void)cache.insert(spoofed, sim::Time{});
  auto reassembled = cache.insert(frags[0], sim::Time{});
  ASSERT_TRUE(reassembled);

  // Must pass the UDP checksum and decode to redirected glue.
  net::UdpDatagram dgram =
      net::decode_udp_buf(reassembled->payload, kNs, kResolver);
  dns::DnsMessage poisoned = dns::decode_dns(dgram.payload);
  EXPECT_EQ(poisoned.id, 0x4242);
  std::size_t redirected = 0;
  for (const auto& rr : poisoned.additional) {
    if (rr.type == dns::RrType::kA && rr.a == kEvil) redirected++;
  }
  EXPECT_EQ(redirected, crafted->rewritten_records);
  EXPECT_GE(redirected, 1u);
}

TEST(CraftSweep, RefusalCasesAreExplainable) {
  // Tiny response never fragments at reasonable MTUs -> refusal.
  dns::DnsMessage small;
  small.qr = true;
  small.questions = {dns::DnsQuestion{
      dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA}};
  small.answers.push_back(dns::make_a(
      dns::DnsName::from_string("pool.ntp.org"), Ipv4Addr{1, 1, 1, 1}, 150));
  CraftConfig cc;
  cc.ns_addr = kNs;
  cc.resolver_addr = kResolver;
  cc.malicious_addrs = {kEvil};
  for (u16 mtu : {296, 548, 1280}) {
    cc.mtu = mtu;
    EXPECT_FALSE(craft_spoofed_second_fragment(encode_dns_buf(small), cc))
        << mtu;
  }
}

}  // namespace
}  // namespace dnstime::attack
