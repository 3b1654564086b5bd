// Population-scale client worlds: 10^5..10^7 NTP clients in one World.
//
// The single-victim worlds instantiate a NetStack + client object per
// host; at fleet scale that is hundreds of bytes and several heap
// allocations per client before the first packet moves. ClientPopulation
// instead keeps the whole fleet as flat struct-of-arrays state — one
// server address, one accumulated clock shift, one DNS expiry, one poll
// interval and one flags byte per client — and queues its poll deadlines
// as batches in a std::map keyed by due instant, each instant's batches in
// push order, behind one driver event on the World's loop. One push
// carries every client that one exchange, back-off or DNS answer re-arms
// for the same instant, so a queued client costs a 4-byte index and no
// callback.
//
// The fleet still speaks the real protocols. Clients whose polls land in
// the same whole second of simulated time (deadlines are quantised to a
// 1 s grid, which is what makes herds form) and target the same server are
// batched: one representative NTP exchange per <= batch_cap clients goes
// out on the wire from a small pool of shared gateway NetStacks, through
// ntp::poll_server — the same poll transaction the single-victim clients
// run — against the real pool/attacker NTP servers with their real rate
// limiters. The gateway clocks are true time, so the exchange measures the
// *server's* offset; each batched client i then disciplines on
// sample_i = server_offset - shift_i through the same ntp::classify_offset
// policy the single-victim clients use. Every client polls every
// kPollSeconds while healthy and doubles its interval up to
// kMaxPollSeconds after a KoD or timeout (ntp::kPollTimeout). DNS works
// the same way: all clients share the World's recursive resolver via one
// in-flight StubResolver query for dns::kPoolDomain, and each client
// tracks its own answer expiry — so a poisoning that lands on the shared
// resolver migrates to the fleet exactly as fast as per-client TTLs roll
// over, which is the population-scale version of the paper's
// shared-resolver amplification (§VIII-B3: one cache entry redirects every
// client behind the resolver).
//
// Determinism: deadlines pop from the map in (time, push) order, and one
// pass over the due instants appends each poll that goes on the wire to
// its server's list in that order. The lists are emitted in ascending
// server address and cut at batch_cap, so every batch holds exactly the
// clients a stable sort by server would have put there, in the same
// order: a stable sort keeps pop order among equal servers, and so does
// appending. Gateways rotate round-robin over the emitted batches, and
// the only randomness is the seeded Rng that staggers initial polls.
// Equal seeds give byte-equal fleet state at any point.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dns/resolver.h"
#include "scenario/world.h"

namespace dnstime::scenario {

/// Steady-state poll interval in seconds (ntpd's default 64 s); initial
/// polls are staggered uniformly across one interval so cohorts spread.
inline constexpr u16 kPollSeconds = 64;
/// Backoff ceiling after KoD / timeout (the interval doubles per failure);
/// also the furthest any poll is armed ahead.
inline constexpr u16 kMaxPollSeconds = 1024;

struct PopulationConfig {
  u32 clients = 100'000;
  u64 seed = 1;
  /// Shared gateway NetStacks (10.200.0.x) that carry the representative
  /// exchanges; rotation spreads the per-source rate-limit cost.
  u32 gateways = 16;
  /// Max clients represented by one wire exchange.
  u32 batch_cap = 256;
};

/// The fleet. Construct against a World, then drive the World's loop as
/// usual (world.run_for(...)); the population keeps itself scheduled.
class ClientPopulation {
 public:
  struct Metrics {
    u64 polls = 0;          ///< client-polls represented by exchanges
    u64 exchanges = 0;      ///< wire exchanges actually performed
    u64 kod_polls = 0;      ///< client-polls answered by a KoD
    u64 timeout_polls = 0;  ///< client-polls whose exchange timed out
    u64 dns_queries = 0;    ///< shared StubResolver queries issued
    u64 dns_waits = 0;      ///< client-polls that waited on a DNS answer
    u64 steps = 0;          ///< discipline outcomes across the fleet
    u64 slews = 0;
    u64 refused = 0;
  };

  ClientPopulation(World& world, PopulationConfig config);
  ~ClientPopulation();

  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  [[nodiscard]] u32 clients() const { return config_.clients; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  /// Fraction of the fleet shifted at least as far as `threshold`
  /// (threshold < 0 counts shift <= threshold; > 0 counts shift >=
  /// threshold). The campaign's fleet-shift metric.
  [[nodiscard]] double fraction_shifted(double threshold) const;

  /// Mean accumulated shift across the fleet (seconds).
  [[nodiscard]] double mean_shift_s() const;

  /// Fraction of clients currently assigned an attacker NTP server.
  [[nodiscard]] double fraction_on_attacker() const;

  /// Resident heap bytes of fleet state (SoA vectors, queued batches and
  /// their map nodes, DNS waiters and per-server lists), amortised per
  /// client.
  /// tests/scenario/population_test.cpp holds it to <= 28 B/client.
  [[nodiscard]] double resident_bytes_per_client() const;

 private:
  enum Flags : u8 {
    kSynced = 1u << 0,  ///< applied at least one offset (at_boot is over)
  };

  [[nodiscard]] static sim::Time at_second(u64 s) {
    return sim::Time::from_ns(
        sim::detail::sat_mul(static_cast<i64>(s), 1'000'000'000));
  }
  [[nodiscard]] u64 now_s() const;

  /// Queue `batch` behind the batches already due at `at`; an empty batch
  /// is a no-op.
  void push(sim::Time at, std::vector<u32> batch);
  /// Queue the next poll of every client in `batch` `delay_s`
  /// (1..kMaxPollSeconds) whole seconds from now, as one push
  /// (grid-quantised, so co-due clients batch).
  void arm(std::vector<u32> batch, u64 delay_s);
  /// Double each client's poll interval (up to kMaxPollSeconds) and arm
  /// it: one push per distinct interval, each in batch order.
  void backoff(std::vector<u32> batch);

  /// Driver: takes every batch due by now, groups the due clients by
  /// server, sends the representative exchanges / the shared DNS query,
  /// re-arms itself at the earliest queued instant.
  void pump();
  void rearm_driver();
  /// The polls list of `server`, added in address order on first use.
  std::vector<u32>& polls_for(u32 server);
  /// Send every grouped poll, ascending server address, <= batch_cap
  /// clients per exchange, and empty the lists.
  void dispatch_polls();
  void begin_exchange(Ipv4Addr server, std::span<const u32> batch);
  void maybe_resolve();
  void on_dns(const std::vector<dns::ResourceRecord>& answers);
  void apply_offset(u32 i, double server_offset);

  World& world_;
  PopulationConfig config_;
  Rng rng_;

  std::vector<World::Host*> gateways_;
  u32 gw_next_ = 0;
  dns::StubResolver stub_;
  bool resolve_inflight_ = false;

  /// Fleet-level copy of the last shared-resolver answer. Clients whose
  /// polls land while it is fresh are assigned from it directly — the
  /// shared resolver would serve them from its cache anyway, so the whole
  /// fleet costs one StubResolver query per TTL window.
  std::vector<u32> cached_a_;
  u32 cache_expiry_s_ = 0;
  u32 cache_next_ = 0;  ///< round-robin cursor over cached_a_

  // --- flat per-client state (the SoA) --------------------------------
  std::vector<u32> server_;       ///< assigned NTP server (0 = unresolved)
  std::vector<double> shift_;     ///< accumulated clock shift, seconds
  std::vector<u32> dns_expiry_s_; ///< sim-second the DNS answer expires
  std::vector<u16> poll_s_;       ///< current poll interval, seconds
  std::vector<u8> flags_;

  /// Queued batches of client indices by due instant, each instant's
  /// batches in push order.
  std::map<sim::Time, std::vector<std::vector<u32>>> queue_;
  sim::EventHandle driver_;
  sim::Time driver_at_;

  std::vector<u32> dns_waiters_;

  /// This pump's wire polls grouped by server, ascending address, each
  /// list in pop order. Kept across pumps, so a steady fleet allocates
  /// nothing here; servers come only from resolver answers, so the table
  /// stays at most pool_size + attacker_ntp_count entries.
  struct ServerPolls {
    u32 server = 0;
    std::vector<u32> clients;
  };
  std::vector<ServerPolls> by_server_;

  Metrics metrics_;
};

}  // namespace dnstime::scenario
