#include "dns/resolver.h"

#include <algorithm>
#include <map>

#include "common/log.h"
#include "obs/counters.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace dnstime::dns {

namespace {
/// An upstream query unanswered this long is resent, once.
constexpr sim::Duration kUpstreamTimeout = sim::Duration::seconds(2);
constexpr int kUpstreamRetries = 1;
}  // namespace

Resolver::Resolver(net::NetStack& stack, Config config)
    : stack_(stack), config_(std::move(config)) {
  stack_.bind_udp(kDnsPort, [this](const net::UdpEndpoint& from, u16,
                                   BufView payload) {
    on_client_query(from, payload);
  });
}

Resolver::~Resolver() {
  stack_.unbind_udp(kDnsPort);
  // det-lint: allow(unordered-iter) cancelling and unbinding commute.
  for (auto& [key, p] : pending_) {
    p.timeout.cancel();
    if (p.src_port != 0) stack_.unbind_udp(p.src_port);
  }
  DNSTIME_COUNT_ADD("dns.client_queries", client_queries_);
  DNSTIME_COUNT_ADD("dns.cache_hits", cache_hits_);
  DNSTIME_COUNT_ADD("dns.cache_misses", cache_misses_);
  DNSTIME_COUNT_ADD("dns.upstream_queries", upstream_queries_);
  DNSTIME_COUNT_ADD("dns.validation_failures", validation_failures_);
  DNSTIME_COUNT_ADD("dns.mismatched_responses", mismatched_);
  DNSTIME_COUNT_ADD("dns.poisoned_served", poisoned_served_);
}

void Resolver::mark_tainted(std::vector<Ipv4Addr> addrs) {
  tainted_.insert(tainted_.end(), addrs.begin(), addrs.end());
}

bool Resolver::is_tainted(Ipv4Addr addr) const {
  return std::find(tainted_.begin(), tainted_.end(), addr) != tainted_.end();
}

void Resolver::add_zone_hint(const DnsName& apex,
                             std::vector<Ipv4Addr> addrs) {
  hints_.emplace_back(apex, std::move(addrs));
}

void Resolver::on_client_query(const net::UdpEndpoint& from,
                               BufView payload) {
  DnsMessage query;
  try {
    query = decode_dns(payload);
  } catch (const DecodeError&) {
    return;
  }
  if (query.qr || query.questions.size() != 1) return;
  if (!config_.open_to_world &&
      from.addr.slash24() != stack_.addr().slash24()) {
    return;  // closed resolver: serve only the local network
  }
  client_queries_++;
  const DnsQuestion& q = query.questions.front();
  if (config_.ignore_rd_bit) query.rd = true;

  auto cached = cache_.lookup(q.name, q.type, stack_.now());
  if (cached) {
    cache_hits_++;
    answer_from_cache(from, query.id, q, *cached);
    return;
  }
  cache_misses_++;
  if (!query.rd) {
    // RD=0 and not cached: answer without records. This non-destructive
    // distinction is what the Table IV cache-probing study keys on.
    respond_empty(from, query.id, q, Rcode::kNoError);
    return;
  }
  start_upstream(q, from, query.id);
}

void Resolver::answer_from_cache(const net::UdpEndpoint& to, u16 id,
                                 const DnsQuestion& q,
                                 const std::vector<ResourceRecord>& rrset) {
  if (!tainted_.empty()) {
    for (const ResourceRecord& rr : rrset) {
      if (rr.type == RrType::kA && is_tainted(rr.a)) {
        poisoned_served_++;
        DNSTIME_TRACE_INSTANT(stack_.now().ns(), "dns", "poisoned-served");
        // The narrative wants the causal link: the cached entry's origin
        // names the spoofed packet that planted the answer being served.
        DNSTIME_PROV_EVENT(poisoned_served(
            stack_.now().ns(), cache_.origin(q.name, q.type, stack_.now()),
            q.name.to_string().c_str()));
        break;
      }
    }
  }
  DnsMessage resp;
  resp.id = id;
  resp.qr = true;
  resp.ra = true;
  resp.questions = {q};
  resp.answers = rrset;
  stack_.send_udp(to.addr, kDnsPort, to.port, encode_dns_buf(resp));
}

void Resolver::respond_empty(const net::UdpEndpoint& to, u16 id,
                             const DnsQuestion& q, Rcode rcode) {
  DnsMessage resp;
  resp.id = id;
  resp.qr = true;
  resp.ra = true;
  resp.rcode = rcode;
  resp.questions = {q};
  stack_.send_udp(to.addr, kDnsPort, to.port, encode_dns_buf(resp));
}

void Resolver::start_upstream(const DnsQuestion& q,
                              const net::UdpEndpoint& client, u16 client_id) {
  // Coalesce with an in-flight query for the same question. At most one
  // entry matches: an entry is only created when this scan finds none.
  // det-lint: allow(unordered-iter) the match, if any, is unique.
  for (auto& [key, p] : pending_) {
    if (p.question == q) {
      p.clients.push_back(client);
      p.client_ids.push_back(client_id);
      return;
    }
  }
  auto upstream = pick_upstream(q.name);
  if (!upstream) {
    respond_empty(client, client_id, q, Rcode::kRefused);
    return;
  }
  u64 key = next_pending_key_++;
  Pending p;
  p.question = q;
  p.clients.push_back(client);
  p.client_ids.push_back(client_id);
  p.upstream = *upstream;
  pending_.emplace(key, std::move(p));
  send_upstream(key, pending_.at(key));
}

void Resolver::send_upstream(u64 key, Pending& p) {
  upstream_queries_++;
  p.attempts++;
  if (p.src_port != 0) stack_.unbind_udp(p.src_port);
  p.txid = stack_.rng().next_u16();
  p.src_port = stack_.ephemeral_port();

  stack_.bind_udp(p.src_port, [this, key](const net::UdpEndpoint& from, u16,
                                          BufView payload) {
    on_upstream_response(key, from, payload);
  });

  DnsMessage query;
  query.id = p.txid;
  query.rd = false;  // iterative upstream query
  query.questions = {p.question};
  stack_.send_udp(p.upstream, p.src_port, kDnsPort, encode_dns_buf(query));

  p.timeout.cancel();
  p.timeout = stack_.loop().schedule_after(
      kUpstreamTimeout, [this, key] { on_upstream_timeout(key); });
}

void Resolver::on_upstream_response(u64 key, const net::UdpEndpoint& from,
                                    BufView payload) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending& p = it->second;

  // Challenge-response checks: source address, TXID, question. The source
  // port check is implicit — the handler is bound to the random port.
  if (from.addr != p.upstream || from.port != kDnsPort) {
    mismatched_++;
    return;
  }
  DnsMessage response;
  try {
    response = decode_dns(payload);
  } catch (const DecodeError&) {
    mismatched_++;
    return;
  }
  if (!response.qr || response.id != p.txid ||
      response.questions.size() != 1 ||
      !(response.questions.front() == p.question)) {
    mismatched_++;
    return;
  }
  if (config_.validate_dnssec && !validate(response)) {
    validation_failures_++;
    fail(key, Rcode::kServFail);
    return;
  }
  finish(key, response, payload.origin());
}

void Resolver::on_upstream_timeout(u64 key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.attempts <= kUpstreamRetries) {
    send_upstream(key, p);
    return;
  }
  fail(key, Rcode::kServFail);
}

void Resolver::finish(u64 key, const DnsMessage& response,
                      const Origin& origin) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  p.timeout.cancel();
  stack_.unbind_udp(p.src_port);
  pending_.erase(it);

  cache_response(p.question, response, origin);

  // Answer every waiting client from what we just learned.
  auto cached = cache_.lookup(p.question.name, p.question.type, stack_.now());
  for (std::size_t i = 0; i < p.clients.size(); ++i) {
    if (cached) {
      answer_from_cache(p.clients[i], p.client_ids[i], p.question, *cached);
    } else {
      respond_empty(p.clients[i], p.client_ids[i], p.question,
                    response.rcode);
    }
  }
}

void Resolver::fail(u64 key, Rcode rcode) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  p.timeout.cancel();
  if (p.src_port != 0) stack_.unbind_udp(p.src_port);
  pending_.erase(it);
  for (std::size_t i = 0; i < p.clients.size(); ++i) {
    respond_empty(p.clients[i], p.client_ids[i], p.question, rcode);
  }
}

std::optional<Ipv4Addr> Resolver::pick_upstream(const DnsName& name) {
  // Prefer the most specific *cached* delegation: walk suffixes from the
  // full name down to 1 label, looking for NS + glue.
  const auto& labels = name.labels();
  for (std::size_t drop = 0; drop < labels.size(); ++drop) {
    DnsName suffix{std::vector<std::string>(labels.begin() +
                                                static_cast<std::ptrdiff_t>(drop),
                                            labels.end())};
    auto ns = cache_.lookup(suffix, RrType::kNs, stack_.now());
    if (!ns) continue;
    std::vector<Ipv4Addr> candidates;
    for (const auto& rr : *ns) {
      if (rr.type != RrType::kNs) continue;
      auto glue = cache_.lookup(rr.target, RrType::kA, stack_.now());
      if (glue) {
        for (const auto& g : *glue) {
          if (g.type == RrType::kA) candidates.push_back(g.a);
        }
      }
    }
    if (!candidates.empty()) {
      return candidates[stack_.rng().uniform(0, candidates.size() - 1)];
    }
  }
  // Fall back to the longest-matching static hint.
  const std::vector<Ipv4Addr>* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [apex, addrs] : hints_) {
    if (name.is_subdomain_of(apex) && apex.label_count() >= best_len) {
      best = &addrs;
      best_len = apex.label_count();
    }
  }
  if (!best || best->empty()) return std::nullopt;
  return (*best)[stack_.rng().uniform(0, best->size() - 1)];
}

bool Resolver::validate(const DnsMessage& response) {
  // Group records by (owner, type) per section and check each RRset that
  // falls under a trust anchor has a valid covering RRSIG.
  auto check_section = [&](const std::vector<ResourceRecord>& recs) {
    std::map<std::pair<std::string, RrType>, std::vector<ResourceRecord>>
        rrsets;
    std::map<std::pair<std::string, RrType>, u64> sigs;
    for (const auto& rr : recs) {
      if (rr.type == RrType::kRrsig) {
        sigs[{rr.name.to_string(), rr.covered}] = rr.signature;
      } else {
        rrsets[{rr.name.to_string(), rr.type}].push_back(rr);
      }
    }
    for (const auto& [key, rrset] : rrsets) {
      // Find the closest trust anchor covering this owner.
      DnsName owner = DnsName::from_string(key.first);
      const u64* secret = nullptr;
      for (const auto& [apex, s] : config_.trust_anchors) {
        if (owner.is_subdomain_of(DnsName::from_string(apex))) {
          secret = &s;
          break;
        }
      }
      if (!secret) continue;  // unsigned zone: nothing to validate
      auto sig_it = sigs.find(key);
      if (sig_it == sigs.end()) return false;  // signed zone, missing RRSIG
      u64 expect = sign_rrset(*secret, rrset.front().name, key.second, rrset);
      if (sig_it->second != expect) return false;
    }
    return true;
  };
  return check_section(response.answers) &&
         check_section(response.authority) &&
         check_section(response.additional);
}

void Resolver::cache_response(const DnsQuestion& q,
                              const DnsMessage& response,
                              const Origin& origin) {
  // Bailiwick rule: only cache records at or below the queried name's
  // zone (approximated by the matching hint/delegation apex). We use the
  // query name's parent domain as the bailiwick boundary.
  auto in_bailiwick = [&](const DnsName& owner) {
    // Accept records for the qname itself or any domain sharing the
    // qname's registrable suffix (last 2 labels) — models the RFC 5452
    // guidance real resolvers apply.
    const auto& ql = q.name.labels();
    if (ql.size() < 2) return true;
    DnsName suffix{std::vector<std::string>(ql.end() - 2, ql.end())};
    return owner.is_subdomain_of(suffix);
  };

  auto cache_section = [&](const std::vector<ResourceRecord>& recs) {
    std::map<std::pair<std::string, RrType>, std::vector<ResourceRecord>>
        rrsets;
    for (const auto& rr : recs) {
      if (rr.type == RrType::kRrsig) continue;
      if (!in_bailiwick(rr.name)) continue;
      rrsets[{rr.name.to_string(), rr.type}].push_back(rr);
    }
    for (auto& [key, rrset] : rrsets) {
      DNSTIME_PROV_EVENT(
          cache_insert(stack_.now().ns(), origin, key.first.c_str()));
      cache_.insert(DnsName::from_string(key.first), key.second,
                    std::move(rrset), stack_.now(), kMaxCacheTtl, origin);
    }
  };
  cache_section(response.answers);
  cache_section(response.authority);
  cache_section(response.additional);
}

void StubResolver::resolve(const DnsName& name, RrType type, Callback cb,
                           sim::Duration timeout) {
  queries_sent_++;
  u16 port = stack_.ephemeral_port();
  u16 txid = stack_.rng().next_u16();

  // Shared completion state between the response handler and the timeout.
  auto done = std::make_shared<bool>(false);
  auto finish = [this, port, done, cb](
                    const std::vector<ResourceRecord>& answers) {
    if (*done) return;
    *done = true;
    stack_.unbind_udp(port);
    cb(answers);
  };

  stack_.bind_udp(port, [txid, name, type, finish](
                            const net::UdpEndpoint&, u16,
                            BufView payload) {
    DnsMessage resp;
    try {
      resp = decode_dns(payload);
    } catch (const DecodeError&) {
      return;
    }
    if (!resp.qr || resp.id != txid) return;
    std::vector<ResourceRecord> answers;
    for (const auto& rr : resp.answers) {
      if (rr.type == type && rr.name == name) answers.push_back(rr);
    }
    finish(answers);
  });

  DnsMessage query;
  query.id = txid;
  query.rd = true;
  query.questions = {DnsQuestion{name, type}};
  stack_.send_udp(resolver_, port, kDnsPort, encode_dns_buf(query));

  stack_.loop().schedule_after(timeout,
                               [finish] { finish({}); });
}

}  // namespace dnstime::dns
