// Recursive DNS resolver and stub-resolver client.
//
// The resolver implements the post-Kaminsky defences the paper's attacker
// must bypass: per-query source-port randomisation and random TXIDs
// ([RFC5452] challenge-response), upstream address matching, bailiwick
// filtering of out-of-zone records, and optional DNSSEC validation. The
// fragmentation attack defeats these *without guessing* — the challenge
// fields arrive in the genuine first fragment.
//
// Delegations (NS + glue) learned from responses are cached and preferred
// over static hints, which is the durable poisoning vector: overwrite the
// glue in one response and every later query for the zone goes to the
// attacker's nameserver.
#pragma once

#include <functional>
#include <unordered_map>

#include "dns/cache.h"
#include "dns/message.h"
#include "net/netstack.h"

namespace dnstime::dns {

class Resolver {
 public:
  struct Config {
    bool validate_dnssec = false;
    /// Trust anchors: zone apex (dotted) -> zone secret. Validation only
    /// applies to zones with an anchor (others are treated as unsigned,
    /// like the real DNS where pool.ntp.org has no DS chain).
    std::unordered_map<std::string, u64> trust_anchors;
    sim::Duration upstream_timeout = sim::Duration::seconds(2);
    int upstream_retries = 1;
    u32 max_cache_ttl = 7 * 86400;
    /// If false, TXIDs and source ports are sequential (pre-Kaminsky
    /// resolver; vulnerable to classic guessing, not needed by our attack).
    bool randomize_challenge = true;
    /// Broken RD handling observed in parts of the open-resolver
    /// population: RD=0 queries are recursed anyway, which defeats the
    /// cache-probing technique's verification step (§VIII-A1).
    bool ignore_rd_bit = false;
    /// If false, queries from outside the resolver's /24 are dropped — a
    /// closed resolver from the scanner's point of view (§VIII-B3).
    bool open_to_world = true;
  };

  Resolver(net::NetStack& stack, Config config);
  ~Resolver();

  Resolver(const Resolver&) = delete;
  Resolver& operator=(const Resolver&) = delete;

  /// Static delegation hint: queries under `apex` go to `addrs` unless a
  /// cached delegation overrides it.
  void add_zone_hint(const DnsName& apex, std::vector<Ipv4Addr> addrs);

  /// Observability: addresses that only an attacker would serve (the
  /// scenario World registers its attacker NS + NTP hosts). A cached answer
  /// carrying one of them bumps the poisoned_served counter — the
  /// "poisoned-entry-served" signal in campaign metrics. Purely diagnostic:
  /// resolution behaviour is unchanged.
  void mark_tainted(std::vector<Ipv4Addr> addrs);

  [[nodiscard]] DnsCache& cache() { return cache_; }
  [[nodiscard]] const DnsCache& cache() const { return cache_; }
  [[nodiscard]] net::NetStack& stack() { return stack_; }

  // Statistics for measurements/tests. Plain members on the query path;
  // ~Resolver folds them into the obs registry under dns.*.
  [[nodiscard]] u64 client_queries() const { return client_queries_; }
  [[nodiscard]] u64 cache_hits() const { return cache_hits_; }
  [[nodiscard]] u64 cache_misses() const { return cache_misses_; }
  [[nodiscard]] u64 upstream_queries() const { return upstream_queries_; }
  [[nodiscard]] u64 validation_failures() const { return validation_failures_; }
  [[nodiscard]] u64 mismatched_responses() const { return mismatched_; }
  [[nodiscard]] u64 poisoned_served() const { return poisoned_served_; }

 private:
  struct Pending {
    DnsQuestion question;
    std::vector<net::UdpEndpoint> clients;
    std::vector<u16> client_ids;
    u16 txid = 0;
    u16 src_port = 0;
    Ipv4Addr upstream;
    int attempts = 0;
    sim::EventHandle timeout;
  };

  void on_client_query(const net::UdpEndpoint& from, BufView payload);
  void answer_from_cache(const net::UdpEndpoint& to, u16 id,
                         const DnsQuestion& q,
                         const std::vector<ResourceRecord>& rrset);
  void respond_empty(const net::UdpEndpoint& to, u16 id, const DnsQuestion& q,
                     Rcode rcode);
  void start_upstream(const DnsQuestion& q, const net::UdpEndpoint& client,
                      u16 client_id);
  void send_upstream(u64 pending_key, Pending& p);
  void on_upstream_response(u64 pending_key, const net::UdpEndpoint& from,
                            BufView payload);
  void on_upstream_timeout(u64 pending_key);
  void finish(u64 pending_key, const DnsMessage& response,
              const Origin& origin);
  void fail(u64 pending_key, Rcode rcode);

  /// Choose the upstream nameserver address for `name`: cached delegation
  /// first (NS + glue A), then static hints. nullopt => REFUSED.
  [[nodiscard]] std::optional<Ipv4Addr> pick_upstream(const DnsName& name);

  /// Structural DNSSEC validation; true if acceptable.
  [[nodiscard]] bool validate(const DnsMessage& response);

  /// Cache every in-bailiwick RRset from the response.
  /// `origin` is the provenance of the wire payload the response was
  /// decoded from; it is stored with every RRset cached from it.
  void cache_response(const DnsQuestion& q, const DnsMessage& response,
                      const Origin& origin);

  [[nodiscard]] bool is_tainted(Ipv4Addr addr) const;

  net::NetStack& stack_;
  Config config_;
  DnsCache cache_;
  std::vector<Ipv4Addr> tainted_;
  std::vector<std::pair<DnsName, std::vector<Ipv4Addr>>> hints_;
  std::unordered_map<u64, Pending> pending_;
  u64 next_pending_key_ = 1;
  u16 seq_txid_ = 1;  // used when randomize_challenge is off
  u64 client_queries_ = 0;
  u64 cache_hits_ = 0;
  u64 cache_misses_ = 0;
  u64 upstream_queries_ = 0;
  u64 validation_failures_ = 0;
  u64 mismatched_ = 0;
  u64 poisoned_served_ = 0;
};

/// Stub resolver: the client-side DNS API every NTP client model uses.
/// Sends queries with RD=1 to a configured recursive resolver and invokes
/// the callback with the answer A records (empty on failure/timeout).
class StubResolver {
 public:
  using Callback =
      std::function<void(const std::vector<ResourceRecord>& answers)>;

  StubResolver(net::NetStack& stack, Ipv4Addr resolver_addr)
      : stack_(stack), resolver_(resolver_addr) {}

  [[nodiscard]] Ipv4Addr resolver() const { return resolver_; }

  /// Issue one query. Timeout after `timeout` (one retry) yields an empty
  /// answer set.
  void resolve(const DnsName& name, RrType type, Callback cb,
               sim::Duration timeout = sim::Duration::seconds(3));

  [[nodiscard]] u64 queries_sent() const { return queries_sent_; }

 private:
  net::NetStack& stack_;
  Ipv4Addr resolver_;
  u64 queries_sent_ = 0;
};

}  // namespace dnstime::dns
