#include "dns/pool_zone.h"

#include <gtest/gtest.h>

namespace dnstime::dns {
namespace {

std::vector<Ipv4Addr> make_servers(std::size_t n) {
  std::vector<Ipv4Addr> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(u32{0x0A000000} + static_cast<u32>(i) + 1);
  }
  return out;
}

PoolZone::Config pool_config() {
  PoolZone::Config cfg;
  cfg.nameservers = {
      {DnsName::from_string("ns1.ntp.org"), Ipv4Addr{198, 51, 100, 1}},
      {DnsName::from_string("ns2.ntp.org"), Ipv4Addr{198, 51, 100, 2}},
      {DnsName::from_string("ns3.ntp.org"), Ipv4Addr{198, 51, 100, 3}},
  };
  return cfg;
}

TEST(PoolZone, ReturnsFourAddressesPerQuery) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(10),
                pool_config());
  DnsMessage resp;
  ASSERT_TRUE(zone.handle(
      DnsQuestion{DnsName::from_string("pool.ntp.org"), RrType::kA}, resp));
  EXPECT_EQ(resp.answers.size(), 4u);
  for (const auto& rr : resp.answers) {
    EXPECT_EQ(rr.type, RrType::kA);
    EXPECT_EQ(rr.ttl, 150u);  // the paper's pool TTL
  }
}

TEST(PoolZone, RotatesThroughPool) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(8),
                pool_config());
  DnsQuestion q{DnsName::from_string("pool.ntp.org"), RrType::kA};
  DnsMessage r1, r2, r3;
  (void)zone.handle(q, r1);
  (void)zone.handle(q, r2);
  (void)zone.handle(q, r3);
  EXPECT_NE(r1.answers[0].a, r2.answers[0].a);
  // 8 servers, 4 per response: the third response wraps to the first set.
  EXPECT_EQ(r1.answers[0].a, r3.answers[0].a);
}

TEST(PoolZone, PeekDoesNotAdvanceRotation) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(12),
                pool_config());
  DnsQuestion q{DnsName::from_string("pool.ntp.org"), RrType::kA};
  DnsMessage peeked = zone.peek_response(q);
  DnsMessage actual;
  (void)zone.handle(q, actual);
  ASSERT_EQ(peeked.answers.size(), actual.answers.size());
  for (std::size_t i = 0; i < peeked.answers.size(); ++i) {
    EXPECT_EQ(peeked.answers[i].a, actual.answers[i].a);
  }
}

TEST(PoolZone, SubzonesServeFromSamePool) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(10),
                pool_config());
  DnsMessage resp;
  ASSERT_TRUE(zone.handle(
      DnsQuestion{DnsName::from_string("0.pool.ntp.org"), RrType::kA}, resp));
  EXPECT_EQ(resp.answers.size(), 4u);
  DnsMessage resp_cc;
  ASSERT_TRUE(zone.handle(
      DnsQuestion{DnsName::from_string("de.pool.ntp.org"), RrType::kA},
      resp_cc));
  EXPECT_EQ(resp_cc.answers.size(), 4u);
}

TEST(PoolZone, DelegationGlueFormsMessageTail) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(10),
                pool_config());
  DnsMessage resp;
  resp.qr = true;
  resp.questions = {DnsQuestion{DnsName::from_string("pool.ntp.org"),
                                RrType::kA}};
  (void)zone.handle(resp.questions[0], resp);
  EXPECT_EQ(resp.authority.size(), 3u);
  EXPECT_EQ(resp.additional.size(), 3u);

  // On the wire, the glue A rdata must be the last record spans.
  const PacketBuf wire = encode_dns_buf(resp);
  std::vector<RecordSpan> spans;
  (void)decode_dns(wire, &spans);
  ASSERT_GE(spans.size(), 3u);
  for (std::size_t i = spans.size() - 3; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].section, Section::kAdditional);
    EXPECT_EQ(spans[i].type, RrType::kA);
  }
}

TEST(PoolZone, NsQueryReturnsNsRrset) {
  PoolZone zone(DnsName::from_string("pool.ntp.org"), make_servers(4),
                pool_config());
  DnsMessage resp;
  ASSERT_TRUE(zone.handle(
      DnsQuestion{DnsName::from_string("pool.ntp.org"), RrType::kNs}, resp));
  EXPECT_EQ(resp.answers.size(), 3u);
  EXPECT_EQ(resp.answers[0].type, RrType::kNs);
}

TEST(PoolZone, TxtPaddingInflatesResponse) {
  auto cfg = pool_config();
  DnsQuestion q{DnsName::from_string("pool.ntp.org"), RrType::kA};
  PoolZone plain(DnsName::from_string("pool.ntp.org"), make_servers(4), cfg);
  cfg.pad_txt_bytes = 200;
  PoolZone padded(DnsName::from_string("pool.ntp.org"), make_servers(4), cfg);
  std::size_t plain_size = encode_dns_buf(plain.peek_response(q)).size();
  std::size_t padded_size = encode_dns_buf(padded.peek_response(q)).size();
  EXPECT_GE(padded_size, plain_size + 200);
}

}  // namespace
}  // namespace dnstime::dns
