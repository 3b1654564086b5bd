// Ablations over the attack's key parameters:
//  (1) reassembly timeout (Linux 30 s vs Windows 60/120 s) vs the
//      fragments needed per TTL window (§IV-A economics);
//  (2) IPID spray width vs nameserver background query rate (analytic
//      §III-2 model cross-checked against the simulated pipeline);
//  (3) Chronos injection size vs tolerable honest rounds (§VI-C);
//  (4) rate-limit probability p vs Table III vulnerability.
#include <cstdio>

#include "analysis/attack_model.h"
#include "analysis/probability.h"
#include "attack/chronos_attack.h"
#include "attack/query_trigger.h"
#include "bench_util.h"
#include "scenario/world.h"

namespace {

using namespace dnstime;
using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

/// Simulated hit rate: poison attempts that landed across repeated
/// trigger rounds, for a given spray width and background query load.
double simulated_hit_rate(std::size_t spray_width, double background_rate,
                          int rounds) {
  WorldConfig wc;
  wc.seed = 7 + spray_width;
  World world(wc);
  // Background load against the pool NS. The ticker lives in this frame,
  // which outlasts every event that runs it; each firing re-arms a copy.
  auto& chatty = world.add_host(Ipv4Addr{10, 99, 0, 1});
  std::function<void()> tick;
  if (background_rate > 0) {
    net::NetStack* cs = chatty.stack.get();
    Ipv4Addr ns = world.pool_ns_addr();
    auto interval = Duration::from_seconds_f(1.0 / background_rate);
    tick = [&world, &tick, cs, ns, interval] {
      dns::DnsMessage q;
      q.id = cs->rng().next_u16();
      q.questions = {dns::DnsQuestion{
          dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA}};
      cs->send_udp(ns, cs->ephemeral_port(), kDnsPort, encode_dns(q));
      world.loop().schedule_after(interval, tick);
    };
    tick();
  }

  auto pc = world.default_poisoner_config();
  pc.spray_width = spray_width;
  attack::CachePoisoner poisoner(world.attacker(), pc);
  poisoner.start();
  world.run_for(Duration::seconds(20));

  int hits = 0;
  for (int r = 0; r < rounds; ++r) {
    attack::QueryTrigger::via_open_resolver(
        world.attacker(), world.resolver_addr(),
        dns::DnsName::from_string("pool.ntp.org"));
    world.run_for(Duration::seconds(5));
    if (world.delegation_hijacked()) {
      hits++;
      // Reset for the next round.
      world.resolver().cache().clear();
    }
    world.run_for(Duration::seconds(155));  // wait out the A TTL
  }
  return static_cast<double>(hits) / rounds;
}

}  // namespace

int main() {
  bench::header("Ablation 1 - reassembly timeout vs boot-time attack cost");
  std::printf("  %-28s %-22s %s\n", "victim OS model",
              "fragments / TTL window", "note");
  struct OsRow {
    const char* name;
    int timeout;
  };
  for (OsRow os : {OsRow{"Linux (30 s)", 30}, OsRow{"RFC 2460 (60 s)", 60},
                   OsRow{"Windows (120 s)", 120}}) {
    int frags = analysis::fragments_per_ttl_window(
        Duration::seconds(150), Duration::seconds(os.timeout));
    std::printf("  %-28s %-22d %s\n", os.name, frags,
                os.timeout == 30 ? "paper: 150/30 = 5" : "");
  }

  bench::header(
      "Ablation 2 - IPID spray width vs background rate (hit probability)");
  std::printf("  %-10s %-12s %-12s %-12s\n", "width", "bg rate/s",
              "analytic", "simulated");
  for (std::size_t width : {4u, 16u, 64u}) {
    for (double rate : {0.0, 1.0, 4.0}) {
      double analytic = analysis::spray_hit_probability(rate, 25.0, width);
      double sim_rate = simulated_hit_rate(width, rate, 6);
      std::printf("  %-10zu %-12.1f %-12.2f %-12.2f\n", width, rate, analytic,
                  sim_rate);
    }
  }
  std::printf(
      "  Shape: wider sprays win; fast-ticking counters need width to\n"
      "  match rate x replant-interval (64 = the Linux frag-cache cap).\n"
      "  The analytic column is an upper bound: it ignores the short\n"
      "  coverage hole around each cache-entry expiry (duplicate replants\n"
      "  inside the timeout window are no-ops), which the simulation pays.\n");

  bench::header(
      "Ablation 3 - Chronos injection size vs tolerable honest rounds");
  std::printf("  %-18s %s\n", "records injected", "attack survives N <=");
  for (std::size_t count : {89u, 60u, 40u, 20u, 8u, 4u}) {
    std::printf("  %-18zu %d\n", count,
                attack::ChronosAttack::max_tolerable_honest_rounds(count));
  }
  std::printf("  (89 records / N <= 11 is the paper's operating point)\n");

  bench::header("Ablation 4 - rate-limit prevalence p vs Table III P2(6,4)");
  std::printf("  %-8s %-10s\n", "p", "P2(6,4)");
  for (double p : {0.2, 0.38, 0.5, 0.7, 0.9}) {
    std::printf("  %-8.2f %-10.3f%s\n", p, analysis::p2(6, 4, p),
                p == 0.38 ? "   <- measured pool prevalence" : "");
  }
  return 0;
}
