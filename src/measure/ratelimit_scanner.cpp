#include "measure/ratelimit_scanner.h"

#include "ntp/server.h"

namespace dnstime::measure {

namespace {
constexpr int kQueriesPerServer = 64;
constexpr sim::Duration kQuerySpacing = sim::Duration::seconds(1);
/// First-half answers beyond second-half answers that mark a limiter.
constexpr int kHalvesThreshold = 8;
/// Some rate limiters still answer a trickle while limiting (§VII-A notes
/// this as a false-positive source the halves heuristic absorbs).
constexpr double kLeakProbability = 0.05;
}  // namespace

RateLimitScanResult scan_pool_rate_limiting(
    const RateLimitScanConfig& config) {
  constexpr u64 kSeed = 0xA11CE;
  Rng rng(kSeed);
  sim::EventLoop loop;
  sim::Network net(loop, rng.fork());
  net.set_default_profile(
      sim::LinkProfile{.latency = sim::Duration::millis(15)});

  struct Target {
    std::unique_ptr<net::NetStack> stack;
    std::unique_ptr<ntp::SystemClock> clock;
    std::unique_ptr<ntp::NtpServer> server;
    PoolServerProfile profile;
    int responses_first_half = 0;
    int responses_second_half = 0;
    bool kod_seen = false;
    bool config_answered = false;
  };

  RateLimitScanResult result;
  result.servers = config.servers;

  std::vector<std::unique_ptr<Target>> targets;
  for (std::size_t i = 0; i < config.servers; ++i) {
    auto t = std::make_unique<Target>();
    t->profile = sample_pool_server(rng, config.population);
    Ipv4Addr addr{static_cast<u32>(0x0B000000 + i + 1)};
    t->stack = std::make_unique<net::NetStack>(net, addr, net::StackConfig{},
                                               rng.fork());
    t->clock = std::make_unique<ntp::SystemClock>(0.0);
    ntp::ServerConfig sc;
    sc.rate_limit.enabled = t->profile.rate_limits;
    sc.rate_limit.send_kod = t->profile.sends_kod;
    sc.rate_limit.leak_probability = kLeakProbability;
    sc.open_config_interface = t->profile.open_config;
    t->server = std::make_unique<ntp::NtpServer>(*t->stack, *t->clock, sc);
    if (t->profile.rate_limits) result.truth_rate_limiting++;
    if (t->profile.sends_kod) result.truth_kod++;
    if (t->profile.open_config) result.truth_open_config++;
    targets.push_back(std::move(t));
  }

  net::NetStack scanner(net, Ipv4Addr{203, 0, 113, 77}, net::StackConfig{},
                        rng.fork());

  // One long-lived port per target so responses attribute cleanly.
  const int half = kQueriesPerServer / 2;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Target* t = targets[i].get();
    u16 port = static_cast<u16>(1024 + i);
    scanner.bind_udp(port, [t, half, &loop, start = loop.now()](
                               const net::UdpEndpoint&, u16,
                               const PacketBuf& payload) {
      ntp::NtpPacket resp;
      try {
        resp = ntp::decode_ntp(payload);
      } catch (const DecodeError&) {
        return;
      }
      if (resp.is_rate_kod()) {
        t->kod_seen = true;
        return;
      }
      i64 query_index = (loop.now() - start).ns() / kQuerySpacing.ns();
      if (query_index < half) {
        t->responses_first_half++;
      } else {
        t->responses_second_half++;
      }
    });
    for (int q = 0; q < kQueriesPerServer; ++q) {
      loop.schedule_at(
          loop.now() + kQuerySpacing * q, [t, port, &scanner] {
            ntp::NtpPacket query;
            query.mode = ntp::Mode::kClient;
            query.tx_time = 1.0;
            scanner.send_udp(t->stack->addr(), port, kNtpPort,
                             encode_ntp_buf(query));
          });
    }
  }
  loop.run_for(kQuerySpacing * (kQueriesPerServer + 5));

  // Configuration-interface probe (one query per server).
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Target* t = targets[i].get();
    u16 port = static_cast<u16>(40000 + (i % 20000));
    scanner.bind_udp(port, [t](const net::UdpEndpoint&, u16,
                               const PacketBuf& payload) {
      if (ntp::decode_config_response(payload)) t->config_answered = true;
    });
    scanner.send_udp(t->stack->addr(), port, kNtpPort,
                     ntp::encode_config_request());
  }
  loop.run_for(sim::Duration::seconds(5));

  for (const auto& t : targets) {
    if (t->kod_seen) result.kod_servers++;
    if (t->responses_first_half >
        t->responses_second_half + kHalvesThreshold) {
      result.rate_limiting_servers++;
    }
    if (t->config_answered) result.open_config_servers++;
  }
  return result;
}

}  // namespace dnstime::measure
