// Seed-corpus generator: writes encoder-produced valid inputs for every
// fuzz harness into <outdir>/<harness>/seed-*.
//
// Seeds come from the repo's own encoders, so the fuzzers start from deep
// in the accept-path instead of rediscovering the wire formats byte by
// byte. The committed corpus under fuzz/corpus/ was produced by this tool
// (plus fuzz-found crashers named crash-*); rerun after changing an
// encoder:   ./fuzz_seed_corpus fuzz/corpus
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/report.h"
#include "campaign/store/journal.h"
#include "dns/message.h"
#include "net/icmp.h"
#include "net/reassembly.h"
#include "ntp/packet.h"

namespace {

namespace fs = std::filesystem;
using namespace dnstime;

fs::path g_out;

void write_seed(const std::string& harness, const std::string& name,
                std::span<const u8> bytes) {
  fs::path dir = g_out / harness;
  fs::create_directories(dir);
  fs::path p = dir / ("seed-" + name);
  std::ofstream out(p, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("%s (%zu bytes)\n", p.string().c_str(), bytes.size());
}

void write_seed(const std::string& harness, const std::string& name,
                const std::string& text) {
  write_seed(harness, name,
             std::span{reinterpret_cast<const u8*>(text.data()), text.size()});
}

void dns_seeds() {
  using namespace dnstime::dns;
  DnsMessage query;
  query.id = 0x1234;
  query.questions.push_back({DnsName::from_string("0.pool.ntp.org"),
                             RrType::kA});
  write_seed("dns_message", "query", encode_dns(query));

  DnsMessage resp;
  resp.id = 0xBEEF;
  resp.qr = resp.aa = resp.ra = true;
  resp.questions.push_back({DnsName::from_string("0.pool.ntp.org"),
                            RrType::kA});
  for (u32 i = 0; i < 4; ++i) {
    resp.answers.push_back(make_a(DnsName::from_string("0.pool.ntp.org"),
                                  Ipv4Addr{0x0A000001u + i}, 150));
  }
  resp.authority.push_back(make_ns(DnsName::from_string("pool.ntp.org"),
                                   DnsName::from_string("ns1.ntp.org"), 3600));
  ResourceRecord cname;
  cname.name = DnsName::from_string("www.ntp.org");
  cname.type = RrType::kCname;
  cname.ttl = 300;
  cname.target = DnsName::from_string("ntp.org");
  resp.additional.push_back(cname);
  resp.additional.push_back(
      make_txt(DnsName::from_string("meta.ntp.org"), "padding padding", 60));
  ResourceRecord sig;
  sig.name = DnsName::from_string("pool.ntp.org");
  sig.type = RrType::kRrsig;
  sig.ttl = 3600;
  sig.covered = RrType::kA;
  sig.signature = sign_rrset(42, sig.name, RrType::kA, resp.answers);
  resp.additional.push_back(sig);
  write_seed("dns_message", "response", encode_dns(resp));

  DnsMessage nx;
  nx.id = 1;
  nx.qr = true;
  nx.rcode = Rcode::kNxDomain;
  write_seed("dns_message", "nxdomain", encode_dns(nx));
}

void ntp_seeds() {
  using namespace dnstime::ntp;
  NtpPacket client;
  client.mode = Mode::kClient;
  client.tx_time = kSimEpochNtpSeconds;
  write_seed("ntp_packet", "client", encode_ntp(client));

  NtpPacket server;
  server.mode = Mode::kServer;
  server.stratum = 2;
  server.refid = 0x0A000001;
  server.org_time = kSimEpochNtpSeconds;
  server.rx_time = kSimEpochNtpSeconds + 0.25;
  server.tx_time = kSimEpochNtpSeconds + 0.375;
  server.ref_time = kSimEpochNtpSeconds - 16.0;
  write_seed("ntp_packet", "server", encode_ntp(server));

  NtpPacket kod;
  kod.mode = Mode::kServer;
  kod.stratum = 0;
  kod.refid = kKodRate;
  write_seed("ntp_packet", "kod-rate", encode_ntp(kod));

  write_seed("ntp_packet", "config-request", encode_config_request());
  ConfigResponse resp;
  resp.upstream_addrs = {Ipv4Addr{0x0A000001}, Ipv4Addr{0x0A000002}};
  resp.configured_hostname = "0.debian.pool.ntp.org";
  write_seed("ntp_packet", "config-response", encode_config_response(resp));
}

void icmp_frag_needed_seeds() {
  using namespace dnstime::net;
  // The §III-1 forgery: "packets from the nameserver to the resolver need
  // fragments of at most 296 bytes" (World's addresses and attack_mtu).
  write_seed("icmp_frag_needed", "attack-mtu-296",
             encode_icmp_frag_needed({.mtu = 296,
                                      .orig_src = Ipv4Addr{198, 51, 100, 53},
                                      .orig_dst = Ipv4Addr{10, 53, 0, 1},
                                      .orig_protocol = kProtoUdp}));
  // RFC 791's floor, quoting an ICMP packet instead of UDP.
  write_seed("icmp_frag_needed", "min-mtu-icmp",
             encode_icmp_frag_needed({.mtu = kMinimumMtu,
                                      .orig_src = Ipv4Addr{1, 1, 1, 1},
                                      .orig_dst = Ipv4Addr{2, 2, 2, 2},
                                      .orig_protocol = kProtoIcmp}));
}

void reassembly_seeds() {
  // Scripts in the fuzz_reassembly op format (see that harness's header).
  auto frag = [](std::vector<u8>& s, u8 op, u8 id, u16 off_units, u8 len) {
    s.push_back(op & 0x7f);
    s.push_back(id);
    s.push_back(static_cast<u8>(off_units >> 8));
    s.push_back(static_cast<u8>(off_units));
    s.push_back(len);
    for (u8 i = 0; i < len; ++i) s.push_back(static_cast<u8>(i * 7 + 1));
  };
  std::vector<u8> two;  // first (MF=1, 16B) + last (MF=0) fragment
  frag(two, 0x04, 9, 0, 16);
  frag(two, 0x00, 9, 2, 8);
  write_seed("reassembly", "two-frag-complete", two);

  std::vector<u8> overlap;  // spoofed 2nd fragment overlapping the genuine
  frag(overlap, 0x04, 7, 0, 24);
  frag(overlap, 0x04, 7, 1, 16);  // overlaps [8,24) with different bytes
  frag(overlap, 0x00, 7, 3, 8);
  write_seed("reassembly", "overlap", overlap);

  std::vector<u8> oor;  // crafted part starting past the datagram end
  frag(oor, 0x00, 5, 0, 8);     // whole datagram: 8 bytes, MF=0
  frag(oor, 0x04, 5, 100, 32);  // out-of-range spray part (dropped)
  write_seed("reassembly", "out-of-range", oor);

  std::vector<u8> spray;  // IPID spray against one pair, then expiry
  for (u8 id = 0; id < 12; ++id) frag(spray, 0x05, id, 64, 8);
  spray.push_back(0x80 | 31);  // +31 s
  spray.push_back(0x80 | 31);  // +31 s -> everything times out
  write_seed("reassembly", "spray-expire", spray);
}

void report_seeds() {
  using namespace dnstime::campaign;
  CampaignReport report;
  report.seed = 41;
  report.trials_per_scenario = 2;
  ScenarioAggregate agg;
  agg.name = "table2/ntpd-p1";
  agg.attack = "run-time";
  agg.trials = 2;
  agg.successes = 1;
  agg.success_rate = 0.5;
  agg.duration_mean_s = 1234.5;
  agg.duration_p50_s = 1234.5;
  agg.duration_p90_s = 1234.5;
  agg.shift_mean_s = -500.0;
  agg.metric_mean = std::nan("");  // null in JSON, the NaN round-trip image
  agg.fragments_total = 64;
  TrialResult ok;
  ok.trial = 0;
  ok.seed = 7;
  ok.success = true;
  ok.duration_s = 1234.5;
  ok.clock_shift_s = -500.0;
  ok.fragments_planted = 64;
  TrialResult failed;
  failed.trial = 1;
  failed.seed = 8;
  failed.duration_s = 21600.0;
  failed.error = "deadline \"exceeded\"\n";
  agg.results = {ok, failed};
  report.scenarios.push_back(agg);
  write_seed("report_reader", "full", report.to_json(true));
  write_seed("report_reader", "aggregates", report.to_json(false));
  report.scenarios.clear();
  write_seed("report_reader", "empty", report.to_json(true));
}

void journal_seeds() {
  using namespace dnstime::campaign;
  using namespace dnstime::campaign::store;
  JournalMeta meta;
  meta.campaign_seed = 41;
  meta.trials_per_scenario = 4;
  meta.scenarios = {{"table2/ntpd-p1", "run-time"},
                    {"table2/chrony", "run-time"},
                    {"boot-time/open-resolver", "boot-time"}};
  Bytes m = meta.encode();
  Bytes meta_input;
  meta_input.push_back(0);  // harness mode byte: even = meta decoder
  meta_input.insert(meta_input.end(), m.begin(), m.end());
  write_seed("journal_reader", "meta", meta_input);

  TrialResult r;
  r.trial = 3;
  r.seed = 0xDEADBEEF;
  r.success = true;
  r.duration_s = 901.25;
  r.clock_shift_s = -500.0;
  r.metric = std::nan("");
  r.fragments_planted = 64;
  r.replant_rounds = 2;
  r.error = "";
  ByteWriter w;
  encode_record(w, fnv1a("table2/ntpd-p1"), r);
  Bytes rec = std::move(w).take();
  Bytes rec_input;
  rec_input.push_back(1);  // odd = record decoder
  rec_input.insert(rec_input.end(), rec.begin(), rec.end());
  write_seed("journal_reader", "record", rec_input);

  TrialResult err = r;
  err.success = false;
  err.error = "trial threw: reassembly timeout";
  ByteWriter w2;
  encode_record(w2, fnv1a("boot-time/open-resolver"), err);
  Bytes rec2 = std::move(w2).take();
  Bytes rec2_input;
  rec2_input.push_back(1);
  rec2_input.insert(rec2_input.end(), rec2.begin(), rec2.end());
  write_seed("journal_reader", "record-error", rec2_input);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTDIR   (e.g. fuzz/corpus)\n", argv[0]);
    return 2;
  }
  g_out = argv[1];
  dns_seeds();
  ntp_seeds();
  icmp_frag_needed_seeds();
  reassembly_seeds();
  report_seeds();
  journal_seeds();
  return 0;
}
