// Deterministic replays of fuzz-found dns::message crashers
// (fuzz/fuzz_dns_message.cpp found them; the corpus keeps the raw inputs
// as fuzz/corpus/dns_message/crash-*). Each case carries the bytes inline
// so the regression runs in every tier-1 ctest invocation with no
// filesystem dependency.
#include <gtest/gtest.h>

#include "dns/message.h"

namespace dnstime::dns {
namespace {

// crash-compression-dotted-label: a response whose second record's owner is
// the single label "a.b" (a literal dot inside a label — legal on the
// wire), preceded by a record owned by ["a","b"]. The NameCompressor used
// to key compression targets by the *dotted* suffix string, under which
// both names collide; the encoder then emitted a pointer to ["a","b"] for
// the ["a.b"] owner, so decode(encode(m)) changed the message. The key is
// now the length-prefixed wire form.
TEST(DnsFuzzRegression, DottedLabelDoesNotAliasCompressionTarget) {
  const u8 wire[] = {
      0x00, 0x00, 0x00, 0x00,  // id, flags
      0x00, 0x00, 0x00, 0x02,  // qd=0, an=2
      0x00, 0x00, 0x00, 0x00,  // ns=0, ar=0
      // answer 1: owner ["a","b"], A 1.2.3.4
      0x01, 'a', 0x01, 'b', 0x00, 0x00, 0x01, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x02, 0x03, 0x04,
      // answer 2: owner ["a.b"] (one label with an embedded dot)
      0x03, 'a', '.', 'b', 0x00, 0x00, 0x01, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x05, 0x06, 0x07, 0x08,
  };
  DnsMessage msg = decode_dns(wire);
  ASSERT_EQ(msg.answers.size(), 2u);
  ASSERT_EQ(msg.answers[0].name.labels().size(), 2u);
  ASSERT_EQ(msg.answers[1].name.labels().size(), 1u);
  EXPECT_EQ(msg.answers[1].name.labels()[0], "a.b");

  const PacketBuf reencoded = encode_dns_buf(msg);
  DnsMessage reparsed = decode_dns(reencoded);
  EXPECT_EQ(reparsed, msg);  // used to come back with answers[1] = ["a","b"]
  ASSERT_EQ(reparsed.answers[1].name.labels().size(), 1u);
  EXPECT_EQ(reparsed.answers[1].name.labels()[0], "a.b");
  // And idempotence on top of identity.
  EXPECT_EQ(encode_dns_buf(reparsed), reencoded);
}

// The general property the fuzzer enforces, pinned on a nontrivial
// message: decode(encode(m)) == m and encode is idempotent.
TEST(DnsFuzzRegression, DecodeEncodeIdentityOnCompressedResponse) {
  DnsMessage msg;
  msg.id = 0x1234;
  msg.qr = msg.aa = true;
  msg.questions.push_back(
      {DnsName::from_string("0.pool.ntp.org"), RrType::kA});
  msg.answers.push_back(
      make_a(DnsName::from_string("0.pool.ntp.org"), Ipv4Addr{0x0A000001}, 150));
  msg.authority.push_back(make_ns(DnsName::from_string("pool.ntp.org"),
                                  DnsName::from_string("ns1.ntp.org"), 3600));
  const PacketBuf wire = encode_dns_buf(msg);
  DnsMessage reparsed = decode_dns(wire);
  EXPECT_EQ(reparsed, msg);
  EXPECT_EQ(encode_dns_buf(reparsed), wire);
}

}  // namespace
}  // namespace dnstime::dns
