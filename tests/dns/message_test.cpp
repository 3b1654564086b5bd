#include "dns/message.h"

#include <gtest/gtest.h>

namespace dnstime::dns {
namespace {

DnsMessage sample_response() {
  DnsMessage m;
  m.id = 0xBEEF;
  m.qr = true;
  m.aa = true;
  m.rd = true;
  m.ra = true;
  m.questions = {DnsQuestion{DnsName::from_string("pool.ntp.org"),
                             RrType::kA}};
  m.answers.push_back(
      make_a(DnsName::from_string("pool.ntp.org"), Ipv4Addr{1, 2, 3, 4}, 150));
  m.answers.push_back(
      make_a(DnsName::from_string("pool.ntp.org"), Ipv4Addr{5, 6, 7, 8}, 150));
  m.authority.push_back(make_ns(DnsName::from_string("pool.ntp.org"),
                                DnsName::from_string("ns1.ntp.org"), 86400));
  m.additional.push_back(
      make_a(DnsName::from_string("ns1.ntp.org"), Ipv4Addr{9, 9, 9, 9}, 86400));
  return m;
}

TEST(DnsMessage, RoundTrip) {
  DnsMessage m = sample_response();
  DnsMessage back = decode_dns(encode_dns_buf(m));
  EXPECT_EQ(back.id, 0xBEEF);
  EXPECT_TRUE(back.qr);
  EXPECT_TRUE(back.aa);
  ASSERT_EQ(back.questions.size(), 1u);
  EXPECT_EQ(back.questions[0].name.to_string(), "pool.ntp.org");
  ASSERT_EQ(back.answers.size(), 2u);
  EXPECT_EQ(back.answers[0].a, (Ipv4Addr{1, 2, 3, 4}));
  EXPECT_EQ(back.answers[1].a, (Ipv4Addr{5, 6, 7, 8}));
  ASSERT_EQ(back.authority.size(), 1u);
  EXPECT_EQ(back.authority[0].target.to_string(), "ns1.ntp.org");
  ASSERT_EQ(back.additional.size(), 1u);
  EXPECT_EQ(back.additional[0].a, (Ipv4Addr{9, 9, 9, 9}));
}

TEST(DnsMessage, RcodeAndFlagsRoundTrip) {
  DnsMessage m;
  m.id = 7;
  m.qr = true;
  m.rcode = Rcode::kNxDomain;
  m.ad = true;
  m.tc = true;
  m.questions = {DnsQuestion{DnsName::from_string("x.example"), RrType::kA}};
  DnsMessage back = decode_dns(encode_dns_buf(m));
  EXPECT_EQ(back.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(back.ad);
  EXPECT_TRUE(back.tc);
}

TEST(DnsMessage, TxtRecordRoundTrip) {
  DnsMessage m;
  m.qr = true;
  m.questions = {DnsQuestion{DnsName::from_string("t.example"), RrType::kTxt}};
  std::string big(600, 'p');  // forces multiple character-strings
  m.answers.push_back(make_txt(DnsName::from_string("t.example"), big, 60));
  DnsMessage back = decode_dns(encode_dns_buf(m));
  ASSERT_EQ(back.answers.size(), 1u);
  EXPECT_EQ(back.answers[0].txt, big);
}

TEST(DnsMessage, RrsigRoundTrip) {
  DnsMessage m;
  m.qr = true;
  m.questions = {DnsQuestion{DnsName::from_string("s.example"), RrType::kA}};
  ResourceRecord sig;
  sig.name = DnsName::from_string("s.example");
  sig.type = RrType::kRrsig;
  sig.ttl = 300;
  sig.covered = RrType::kA;
  sig.signature = 0x1122334455667788ull;
  m.answers.push_back(sig);
  DnsMessage back = decode_dns(encode_dns_buf(m));
  ASSERT_EQ(back.answers.size(), 1u);
  EXPECT_EQ(back.answers[0].covered, RrType::kA);
  EXPECT_EQ(back.answers[0].signature, 0x1122334455667788ull);
}

TEST(DnsMessage, SpansLocateRdata) {
  DnsMessage m = sample_response();
  Bytes wire = encode_dns_buf(m).to_bytes();
  std::vector<RecordSpan> spans;
  (void)decode_dns(wire, &spans);
  ASSERT_EQ(spans.size(), 4u);

  // The span of the first answer's rdata should contain 1.2.3.4.
  const RecordSpan& s0 = spans[0];
  EXPECT_EQ(s0.section, Section::kAnswer);
  EXPECT_EQ(s0.type, RrType::kA);
  ASSERT_EQ(s0.rdata_length, 4u);
  EXPECT_EQ(wire[s0.rdata_offset], 1);
  EXPECT_EQ(wire[s0.rdata_offset + 1], 2);
  EXPECT_EQ(wire[s0.rdata_offset + 2], 3);
  EXPECT_EQ(wire[s0.rdata_offset + 3], 4);

  // Rewriting the rdata in place changes the decoded address — the
  // operation the fragment crafter performs.
  wire[s0.rdata_offset] = 66;
  DnsMessage poisoned = decode_dns(wire);
  EXPECT_EQ(poisoned.answers[0].a, (Ipv4Addr{66, 2, 3, 4}));

  // TTL span: 4 bytes big-endian == 150 for pool answers.
  u32 ttl = (u32{wire[s0.ttl_offset]} << 24) |
            (u32{wire[s0.ttl_offset + 1]} << 16) |
            (u32{wire[s0.ttl_offset + 2]} << 8) | u32{wire[s0.ttl_offset + 3]};
  EXPECT_EQ(ttl, 150u);

  // Last span is the additional-section glue (the poisoning target).
  EXPECT_EQ(spans.back().section, Section::kAdditional);
}

TEST(DnsMessage, MalformedInputThrows) {
  Bytes junk = {0x12, 0x34, 0x00};
  EXPECT_THROW((void)decode_dns(junk), DecodeError);
}

TEST(DnsMessage, SignatureChangesWithRrsetContent) {
  auto owner = DnsName::from_string("pool.ntp.org");
  std::vector<ResourceRecord> set1 = {make_a(owner, Ipv4Addr{1, 1, 1, 1}, 60)};
  std::vector<ResourceRecord> set2 = {make_a(owner, Ipv4Addr{6, 6, 6, 6}, 60)};
  u64 s1 = sign_rrset(42, owner, RrType::kA, set1);
  u64 s2 = sign_rrset(42, owner, RrType::kA, set2);
  u64 s3 = sign_rrset(43, owner, RrType::kA, set1);
  EXPECT_NE(s1, s2);  // rdata covered
  EXPECT_NE(s1, s3);  // key covered
  // TTL is not covered (mirrors DNSSEC semantics).
  std::vector<ResourceRecord> set1_ttl = {
      make_a(owner, Ipv4Addr{1, 1, 1, 1}, 9999)};
  EXPECT_EQ(s1, sign_rrset(42, owner, RrType::kA, set1_ttl));
}

}  // namespace
}  // namespace dnstime::dns
