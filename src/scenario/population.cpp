#include "scenario/population.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "dns/pool_zone.h"
#include "ntp/client_base.h"
#include "ntp/poll_policy.h"
#include "obs/counters.h"

namespace dnstime::scenario {

namespace {

/// Gateway block: 10.200.0.x, disjoint from the victim (10.77/16), pool
/// (10.10/16) and attacker (6.6/16) blocks the World allocates.
constexpr u32 kGatewayBase = 0x0AC80001u;

std::vector<World::Host*> make_gateways(World& world, u32 count) {
  const u32 n = std::min(std::max(count, 1u), 250u);
  std::vector<World::Host*> out;
  out.reserve(n);
  for (u32 g = 0; g < n; ++g) {
    out.push_back(&world.add_host(Ipv4Addr(kGatewayBase + g)));
  }
  return out;
}

}  // namespace

ClientPopulation::ClientPopulation(World& world, PopulationConfig config)
    : world_(world),
      config_(std::move(config)),
      rng_(config_.seed),
      gateways_(make_gateways(world, config_.gateways)),
      stub_(*gateways_.front()->stack, world.resolver_addr()),
      queue_(kMaxPollSeconds) {
  config_.batch_cap = std::max(config_.batch_cap, 1u);
  const u32 n = config_.clients;
  server_.assign(n, 0);
  shift_.assign(n, 0.0);
  dns_expiry_s_.assign(n, 0);
  poll_s_.assign(n, kPollSeconds);
  flags_.assign(n, 0);

  // Stagger the first polls uniformly across one poll interval so the
  // fleet settles into ~clients/kPollSeconds cohorts per grid second
  // instead of one thundering herd.
  for (u32 i = 0; i < n; ++i) {
    arm(i, 1 + rng_.uniform(0, kPollSeconds - 1));
  }
  rearm_driver();
}

ClientPopulation::~ClientPopulation() {
  // The driver captures `this`; kill it so a World outliving the
  // population cannot fire into freed fleet state. (Exchange handlers are
  // bounded by ntp::kPollTimeout; trials tear the World down with the
  // population, so only the self-rescheduling driver needs this.)
  if (driver_armed_) driver_.cancel();
  DNSTIME_COUNT_ADD("population.clients", config_.clients);
  DNSTIME_COUNT_ADD("population.polls", metrics_.polls);
  DNSTIME_COUNT_ADD("population.exchanges", metrics_.exchanges);
  DNSTIME_COUNT_ADD("population.kod_polls", metrics_.kod_polls);
  DNSTIME_COUNT_ADD("population.timeout_polls", metrics_.timeout_polls);
  DNSTIME_COUNT_ADD("population.dns_queries", metrics_.dns_queries);
  DNSTIME_COUNT_ADD("population.dns_waits", metrics_.dns_waits);
  DNSTIME_COUNT_ADD("population.steps", metrics_.steps);
  DNSTIME_COUNT_ADD("population.slews", metrics_.slews);
  DNSTIME_COUNT_ADD("population.refused", metrics_.refused);
}

u64 ClientPopulation::now_s() const {
  const i64 ns = world_.loop().now().ns();
  return ns <= 0 ? 0 : static_cast<u64>(ns) / 1'000'000'000u;
}

void ClientPopulation::arm(u32 i, u64 delay_s) {
  queue_.push(at_second(now_s() + delay_s), i);
}

void ClientPopulation::backoff(u32 i) {
  const u32 next =
      std::min<u32>(static_cast<u32>(poll_s_[i]) * 2u, kMaxPollSeconds);
  poll_s_[i] = static_cast<u16>(next);
  arm(i, next);
}

void ClientPopulation::rearm_driver() {
  const std::optional<sim::SecondCalendar::Entry> top = queue_.peek();
  if (!top) {
    if (driver_armed_) {
      driver_.cancel();
      driver_armed_ = false;
    }
    return;
  }
  // An already-armed driver that fires at or before the new head still
  // works (an early pump pops nothing and re-arms); only a head that moved
  // *earlier* forces a reschedule.
  if (driver_armed_ && driver_.valid() && driver_at_ <= top->at) return;
  if (driver_armed_) driver_.cancel();
  sim::Time at = top->at;
  const sim::Time now = world_.loop().now();
  if (at < now) at = now;
  driver_ = world_.loop().schedule_at(at, [this] { pump(); });
  driver_at_ = at;
  driver_armed_ = true;
}

void ClientPopulation::pump() {
  driver_armed_ = false;  // our handle just fired
  due_scratch_.clear();
  queue_.pop_due(world_.loop().now(), due_scratch_);

  const u64 s = now_s();
  for (u32 i : due_scratch_) {
    if (server_[i] == 0 || dns_expiry_s_[i] <= s) {
      if (cached_a_.empty() || s >= cache_expiry_s_) {
        // Unresolved or TTL-expired: this poll waits on the shared
        // resolver.
        dns_waiters_.push_back(i);
        metrics_.dns_waits++;
        continue;
      }
      // The shared resolver would answer this from its cache; serve the
      // fleet-level copy instead of issuing another query.
      server_[i] = cached_a_[cache_next_++ % cached_a_.size()];
      dns_expiry_s_[i] = cache_expiry_s_;
    }
    polls_for(server_[i]).push_back(i);
  }
  dispatch_polls();
  maybe_resolve();
  rearm_driver();
}

std::vector<u32>& ClientPopulation::polls_for(u32 server) {
  const auto it = std::lower_bound(
      by_server_.begin(), by_server_.end(), server,
      [](const ServerPolls& p, u32 key) { return p.server < key; });
  if (it != by_server_.end() && it->server == server) return it->clients;
  return by_server_.insert(it, ServerPolls{server, {}})->clients;
}

void ClientPopulation::dispatch_polls() {
  for (ServerPolls& p : by_server_) {
    const std::span<const u32> polls = p.clients;
    for (std::size_t start = 0; start < polls.size();
         start += config_.batch_cap) {
      begin_exchange(Ipv4Addr(p.server),
                     polls.subspan(start, std::min<std::size_t>(
                                              config_.batch_cap,
                                              polls.size() - start)));
    }
    p.clients.clear();
  }
}

void ClientPopulation::begin_exchange(Ipv4Addr server,
                                      std::span<const u32> batch) {
  World::Host* gw = gateways_[gw_next_++ % gateways_.size()];
  metrics_.exchanges++;
  metrics_.polls += batch.size();
  // Gateway clocks stay at true time, so the poll measures the *server's*
  // offset; each batched client subtracts its own shift afterwards.
  auto clients =
      std::make_shared<std::vector<u32>>(batch.begin(), batch.end());
  ntp::poll_server(
      *gw->stack, gw->clock, server,
      [this, clients](const ntp::PollResult& r) {
        if (r.responded) {
          for (u32 i : *clients) apply_offset(i, r.offset);
        } else {
          (r.kod ? metrics_.kod_polls : metrics_.timeout_polls) +=
              clients->size();
          for (u32 i : *clients) backoff(i);
        }
        rearm_driver();
      });
}

void ClientPopulation::maybe_resolve() {
  if (dns_waiters_.empty() || resolve_inflight_) return;
  resolve_inflight_ = true;
  metrics_.dns_queries++;
  stub_.resolve(dns::pool_name(), dns::RrType::kA,
                [this](const std::vector<dns::ResourceRecord>& answers) {
                  on_dns(answers);
                });
}

void ClientPopulation::on_dns(const std::vector<dns::ResourceRecord>& answers) {
  resolve_inflight_ = false;
  std::vector<u32> waiters;
  waiters.swap(dns_waiters_);

  std::vector<const dns::ResourceRecord*> a_records;
  for (const auto& rr : answers) {
    if (rr.type == dns::RrType::kA) a_records.push_back(&rr);
  }

  if (a_records.empty()) {
    // Resolution failed: keep any stale assignment, back the poll off and
    // retry DNS on the next fire (the expiry stays in the past).
    for (u32 i : waiters) backoff(i);
  } else {
    const u64 s = now_s();
    const sim::Time now = world_.loop().now();
    // Refresh the fleet-level answer cache; later cohorts are assigned
    // from it without re-querying until the shortest A TTL rolls over.
    cached_a_.clear();
    u64 min_ttl = std::numeric_limits<u64>::max();
    for (const dns::ResourceRecord* rr : a_records) {
      cached_a_.push_back(rr->a.value());
      min_ttl = std::min<u64>(min_ttl, rr->ttl);
    }
    cache_expiry_s_ = static_cast<u32>(
        std::min<u64>(s + min_ttl, std::numeric_limits<u32>::max()));
    for (u32 i : waiters) {
      server_[i] = cached_a_[cache_next_++ % cached_a_.size()];
      dns_expiry_s_[i] = cache_expiry_s_;
      queue_.push(now, i);  // poll immediately on the fresh assignment
    }
  }
  maybe_resolve();  // waiters queued while the query was in flight
  rearm_driver();
}

void ClientPopulation::apply_offset(u32 i, double server_offset) {
  // The gateway measured the server against true time; this client's
  // clock is off by shift_[i], so its own measurement would read:
  const double sample = server_offset - shift_[i];
  const bool at_boot = (flags_[i] & kSynced) == 0;
  switch (ntp::classify_offset(sample, at_boot)) {
    case ntp::OffsetAction::kNone:
      break;
    case ntp::OffsetAction::kSlew:
      shift_[i] += sample;
      flags_[i] |= kSynced;
      metrics_.slews++;
      break;
    case ntp::OffsetAction::kStep:
      shift_[i] += sample;
      flags_[i] |= kSynced;
      metrics_.steps++;
      break;
    case ntp::OffsetAction::kRefuse:
      metrics_.refused++;
      break;
  }
  poll_s_[i] = kPollSeconds;  // healthy again
  arm(i, poll_s_[i]);
}

double ClientPopulation::fraction_shifted(double threshold) const {
  if (shift_.empty()) return 0.0;
  u64 hit = 0;
  for (double s : shift_) {
    if (threshold < 0 ? s <= threshold : s >= threshold) hit++;
  }
  return static_cast<double>(hit) / static_cast<double>(shift_.size());
}

double ClientPopulation::mean_shift_s() const {
  if (shift_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : shift_) sum += s;
  return sum / static_cast<double>(shift_.size());
}

double ClientPopulation::fraction_on_attacker() const {
  if (server_.empty()) return 0.0;
  u64 hit = 0;
  for (u32 s : server_) {
    if (s != 0 && world_.is_attacker_ntp(Ipv4Addr(s))) hit++;
  }
  return static_cast<double>(hit) / static_cast<double>(server_.size());
}

double ClientPopulation::resident_bytes_per_client() const {
  if (config_.clients == 0) return 0.0;
  std::size_t bytes = server_.capacity() * sizeof(u32) +
                      shift_.capacity() * sizeof(double) +
                      dns_expiry_s_.capacity() * sizeof(u32) +
                      poll_s_.capacity() * sizeof(u16) +
                      flags_.capacity() * sizeof(u8) +
                      dns_waiters_.capacity() * sizeof(u32) +
                      due_scratch_.capacity() * sizeof(u32) +
                      cached_a_.capacity() * sizeof(u32) +
                      by_server_.capacity() * sizeof(ServerPolls) +
                      queue_.memory_bytes();
  for (const ServerPolls& p : by_server_) {
    bytes += p.clients.capacity() * sizeof(u32);
  }
  return static_cast<double>(bytes) / static_cast<double>(config_.clients);
}

}  // namespace dnstime::scenario
