// Population-scale client worlds: 10^5..10^7 NTP clients in one World.
//
// The single-victim worlds instantiate a NetStack + client object per
// host; at fleet scale that is hundreds of bytes and several heap
// allocations per client before the first packet moves. ClientPopulation
// instead keeps the whole fleet as flat struct-of-arrays state — one
// server address, one accumulated clock shift, one DNS expiry, one poll
// interval and one flags byte per client — and drives every poll deadline
// through a sim::SecondCalendar with the client index as the payload
// (src/sim/second_calendar.h): a ring of per-second FIFO buckets, O(1)
// push and pop, 8 B per armed timer, no callbacks.
//
// The fleet still speaks the real protocols. Clients whose polls land in
// the same whole second of simulated time (deadlines are quantised to a
// 1 s grid, which is what makes herds form) and target the same server are
// batched: one representative NTP exchange per <= batch_cap clients goes
// out on the wire from a small pool of shared gateway NetStacks, through
// the real UDP/IP path, against the real pool/attacker NTP servers with
// their real rate limiters. The gateway clocks are true time, so the
// exchange measures the *server's* offset; each batched client i then
// disciplines on sample_i = server_offset - shift_i through the same
// ntp::classify_offset policy the single-victim clients use. DNS works the
// same way: all clients share the World's recursive resolver via one
// in-flight StubResolver query, and each client tracks its own answer
// expiry — so a poisoning that lands on the shared resolver migrates to
// the fleet exactly as fast as per-client TTLs roll over, which is the
// population-scale version of the paper's shared-resolver amplification
// (§VIII-B3: one cache entry redirects every client behind the resolver).
//
// Determinism: deadlines pop from the calendar in (time, push) order, and
// one pass over a due second appends each poll that goes on the wire to
// its server's list in that order. The lists are emitted in ascending
// server address and cut at batch_cap, so every batch holds exactly the
// clients a stable sort by server would have put there, in the same
// order: a stable sort keeps pop order among equal servers, and so does
// appending. Gateways rotate round-robin over the emitted batches, and
// the only randomness is the seeded Rng that staggers initial polls.
// Equal seeds give byte-equal fleet state at any point.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dns/resolver.h"
#include "ntp/poll_policy.h"
#include "scenario/world.h"
#include "sim/second_calendar.h"

namespace dnstime::scenario {

struct PopulationConfig {
  u32 clients = 100'000;
  u64 seed = 1;
  std::string pool_domain = "pool.ntp.org";
  /// Shared gateway NetStacks (10.200.0.x) that carry the representative
  /// exchanges; rotation spreads the per-source rate-limit cost.
  u32 gateways = 16;
  /// Max clients represented by one wire exchange.
  u32 batch_cap = 256;
  /// Steady-state poll interval (ntpd default 64 s); initial polls are
  /// staggered uniformly across one interval so cohorts spread.
  u32 poll_s = 64;
  /// Backoff ceiling after KoD / timeout (doubles per failure); also the
  /// furthest any poll is armed ahead, which sizes the poll calendar.
  u32 max_poll_s = 1024;
  sim::Duration poll_timeout = sim::Duration::seconds(2);
  ntp::PollPolicy policy;
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

  /// Resident heap bytes of fleet state (SoA vectors + calendar),
  /// amortised per client. The population budget is <= 40 B/client.
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

  /// Arm client i's next poll `delay_s` (1..max_poll_s) whole seconds
  /// from now (grid-quantised, so co-due clients batch).
  void arm(u32 i, u64 delay_s);
  void backoff(u32 i);

  /// Driver: pops every due calendar entry, groups the due clients by
  /// server, sends the representative exchanges / the shared DNS query,
  /// re-arms itself at the calendar's next deadline.
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

  sim::SecondCalendar queue_;  ///< payload = client index
  sim::EventHandle driver_;
  sim::Time driver_at_;
  bool driver_armed_ = false;

  std::vector<u32> dns_waiters_;
  std::vector<u32> due_scratch_;

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
