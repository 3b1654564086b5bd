#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.h"

namespace dnstime::sim {
namespace {

struct Capture : PacketSink {
  std::vector<net::Ipv4Packet> packets;
  void deliver(const net::Ipv4Packet& pkt) override { packets.push_back(pkt); }
};

net::Ipv4Packet make_packet(Ipv4Addr src, Ipv4Addr dst) {
  net::Ipv4Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.payload = {1};
  return pkt;
}

TEST(Network, DeliversToAttachedSink) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  Capture sink;
  Ipv4Addr addr{10, 0, 0, 1};
  net.attach(addr, &sink);
  net.send(make_packet(Ipv4Addr{10, 0, 0, 2}, addr));
  loop.run_all();
  ASSERT_EQ(sink.packets.size(), 1u);
}

TEST(Network, UnknownDestinationSilentlyDropped) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  net.send(make_packet(Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}));
  loop.run_all();
  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_EQ(net.packets_sent(), 1u);
}

TEST(Network, LatencyDelaysDelivery) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  net.set_default_profile(LinkProfile{.latency = Duration::millis(25)});
  Capture sink;
  Ipv4Addr addr{10, 0, 0, 1};
  net.attach(addr, &sink);
  net.send(make_packet(Ipv4Addr{10, 0, 0, 2}, addr));
  loop.run_until(Time::from_ns(Duration::millis(24).ns()));
  EXPECT_TRUE(sink.packets.empty());
  loop.run_until(Time::from_ns(Duration::millis(25).ns()));
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Network, PerPathProfileOverridesDefault) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  net.set_default_profile(LinkProfile{.latency = Duration::millis(10)});
  Ipv4Addr fast_src{1, 1, 1, 1}, dst{10, 0, 0, 1};
  net.set_profile(fast_src, dst, LinkProfile{.latency = Duration::millis(1)});
  Capture sink;
  net.attach(dst, &sink);
  net.send(make_packet(fast_src, dst));
  loop.run_until(Time::from_ns(Duration::millis(1).ns()));
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Network, FullLossDropsEverything) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  net.set_default_profile(LinkProfile{.loss = 1.0});
  Capture sink;
  Ipv4Addr addr{10, 0, 0, 1};
  net.attach(addr, &sink);
  for (int i = 0; i < 50; ++i) {
    net.send(make_packet(Ipv4Addr{10, 0, 0, 2}, addr));
  }
  loop.run_all();
  EXPECT_TRUE(sink.packets.empty());
}

TEST(Network, PartialLossDropsSome) {
  EventLoop loop;
  Network net{loop, Rng{42}};
  net.set_default_profile(LinkProfile{.loss = 0.5});
  Capture sink;
  Ipv4Addr addr{10, 0, 0, 1};
  net.attach(addr, &sink);
  for (int i = 0; i < 400; ++i) {
    net.send(make_packet(Ipv4Addr{10, 0, 0, 2}, addr));
  }
  loop.run_all();
  EXPECT_GT(sink.packets.size(), 120u);
  EXPECT_LT(sink.packets.size(), 280u);
}

TEST(Network, DetachStopsDelivery) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  Capture sink;
  Ipv4Addr addr{10, 0, 0, 1};
  net.attach(addr, &sink);
  net.detach(addr);
  net.send(make_packet(Ipv4Addr{10, 0, 0, 2}, addr));
  loop.run_all();
  EXPECT_TRUE(sink.packets.empty());
}

TEST(Network, SameInstantTrainIsOneLoopEvent) {
  EventLoop loop;
  Network net{loop, Rng{1}};
  const Ipv4Addr src{10, 0, 0, 2}, dst{10, 0, 0, 1};
  std::vector<std::pair<std::string, i64>> seen;
  struct Recorder : PacketSink {
    EventLoop* loop = nullptr;
    std::vector<std::pair<std::string, i64>>* seen = nullptr;
    void deliver(const net::Ipv4Packet& pkt) override {
      seen->emplace_back("p" + std::to_string(pkt.id), loop->now().ns());
    }
  } sink;
  sink.loop = &loop;
  sink.seen = &seen;
  net.attach(dst, &sink);
  auto send = [&](u16 id) {
    net::Ipv4Packet pkt = make_packet(src, dst);
    pkt.id = id;
    net.send(std::move(pkt));
  };

  for (u16 id = 0; id < 5; ++id) send(id);
  EXPECT_EQ(loop.pending(), 1u) << "five sends to one instant, one event";
  loop.run_all();
  EXPECT_EQ(loop.stats().fired, 1u);
  const i64 at = Duration::millis(10).ns();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, i64>>{
                      {"p0", at}, {"p1", at}, {"p2", at}, {"p3", at},
                      {"p4", at}}));

  // An event scheduled at the train's instant between two sends closes
  // the train: B would pop after X, so it opens a train of its own.
  seen.clear();
  send(10);
  loop.schedule_after(Duration::millis(10),
                      [&] { seen.emplace_back("X", loop.now().ns()); });
  send(11);
  EXPECT_EQ(loop.pending(), 3u);
  loop.run_all();
  const i64 later = at + Duration::millis(10).ns();
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, i64>>{
                      {"p10", later}, {"X", later}, {"p11", later}}));
}

TEST(Network, TrainReleasesEachPacketAsItsDeliveryReturns) {
  // Each packet's block goes back when its own delivery returns, as when
  // every packet had its own event, not when the train's event ends.
  EventLoop loop;
  Network net{loop, Rng{1}};
  struct Probe : PacketSink {
    std::vector<u64> outstanding;
    void deliver(const net::Ipv4Packet&) override {
      outstanding.push_back(BufferPool::aggregate_stats().outstanding);
    }
  } probe;
  const Ipv4Addr src{10, 0, 0, 2}, dst{10, 0, 0, 1};
  net.attach(dst, &probe);
  const u64 base = BufferPool::aggregate_stats().outstanding;
  for (int i = 0; i < 3; ++i) net.send(make_packet(src, dst));
  ASSERT_EQ(loop.pending(), 1u);
  EXPECT_EQ(BufferPool::aggregate_stats().outstanding, base + 3);
  loop.run_all();
  EXPECT_EQ(probe.outstanding,
            (std::vector<u64>{base + 3, base + 2, base + 1}));
  EXPECT_EQ(BufferPool::aggregate_stats().outstanding, base);
}

/// The oracle for trains: the same profiles, draws and sink lookup, but
/// `send` schedules one delivery event per packet.
class PerPacketNetwork {
 public:
  PerPacketNetwork(EventLoop& loop, Rng rng)
      : loop_(loop), rng_(std::move(rng)) {}

  void attach(Ipv4Addr addr, PacketSink* sink) { sinks_[addr] = sink; }
  void detach(Ipv4Addr addr) { sinks_.erase(addr); }
  void set_default_profile(LinkProfile p) { default_profile_ = p; }
  void set_profile(Ipv4Addr src, Ipv4Addr dst, LinkProfile p) {
    profiles_[{src.value(), dst.value()}] = p;
  }

  void send(net::Ipv4Packet&& pkt) {
    packets_sent_++;
    auto found = profiles_.find({pkt.src.value(), pkt.dst.value()});
    const LinkProfile& link =
        found == profiles_.end() ? default_profile_ : found->second;
    if (link.loss > 0.0 && rng_.chance(link.loss)) return;

    Duration delay = link.latency;
    if (link.jitter > Duration::millis(0)) {
      delay = delay + Duration::nanos(static_cast<i64>(
                          rng_.uniform(0, static_cast<u64>(link.jitter.ns()))));
    }
    loop_.schedule_after(delay, [this, pkt = std::move(pkt)] {
      auto it = sinks_.find(pkt.dst);
      if (it == sinks_.end()) return;  // unreachable host: silent drop
      packets_delivered_++;
      it->second->deliver(pkt);
    });
  }

  [[nodiscard]] u64 packets_sent() const { return packets_sent_; }
  [[nodiscard]] u64 packets_delivered() const { return packets_delivered_; }

 private:
  EventLoop& loop_;
  Rng rng_;
  LinkProfile default_profile_;
  std::unordered_map<Ipv4Addr, PacketSink*> sinks_;
  std::map<std::pair<u32, u32>, LinkProfile> profiles_;
  u64 packets_sent_ = 0;
  u64 packets_delivered_ = 0;
};

/// A delivered packet or a fired event (by id), or a run_until cut-off
/// (kCut), and the loop's time then.
struct Seen {
  u32 id;
  i64 now_ns;
  bool operator==(const Seen&) const = default;
};
constexpr u32 kCut = ~u32{0};

/// The cases trains must get right, counted against the send just before
/// on sends whose instant is known (no jitter, no loss).
struct Coverage {
  int joins = 0;             ///< same instant, nothing in between
  int joins_across_cut = 0;  ///< same instant, a run_until cut-off between
  int split_by_event = 0;    ///< same instant, an event there in between
  int zero_latency_in_delivery = 0;  ///< sends at now from a delivery
  int detaches_in_delivery = 0;

  Coverage& operator+=(const Coverage& o) {
    joins += o.joins;
    joins_across_cut += o.joins_across_cut;
    split_by_event += o.split_by_event;
    zero_latency_in_delivery += o.zero_latency_in_delivery;
    detaches_in_delivery += o.detaches_in_delivery;
    return *this;
  }
};

/// Hosts 0..kHosts-1 have sinks; host kHosts never does, so sends to it
/// are dropped.
constexpr std::size_t kHosts = 4;
Ipv4Addr host_addr(std::size_t h) {
  return Ipv4Addr{10, 0, 0, static_cast<u8>(1 + h)};
}
Duration pick_ms(u64 r, std::initializer_list<i64> choices) {
  return Duration::millis(choices.begin()[r % choices.size()]);
}

/// A seeded script over a few hosts: sends, unrelated events at now, +1
/// or +10 ms (the latencies, so they land on pending delivery instants),
/// run_until cut-offs of 0, 1, 9 or 10 ms, and re-attaches. Paths take
/// 0, 1 or 10 ms, some with jitter or loss. Each delivered packet or
/// fired event then acts by a plan drawn from (seed, id) alone, so both
/// networks see the same plan: it may send one or two packets from its
/// host (zero latency included), schedule an event, send around one, or
/// detach or re-attach a host.
template <class Net>
class Script {
 public:
  explicit Script(u64 seed)
      : seed_(seed), rng_(seed), net_(loop_, Rng{mix_seed(seed, 7)}) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      hosts_[h].script = this;
      hosts_[h].index = h;
      net_.attach(host_addr(h), &hosts_[h]);
    }
    default_ = pick_profile();
    net_.set_default_profile(default_);
    for (std::size_t s = 0; s < kHosts; ++s) {
      for (std::size_t d = 0; d <= kHosts; ++d) {
        if (!rng_.chance(0.5)) continue;
        profiles_[{s, d}] = pick_profile();
        net_.set_profile(host_addr(s), host_addr(d), profiles_[{s, d}]);
      }
    }
  }

  std::vector<Seen> run() {
    for (int op = 0; op < 400; ++op) {
      const u64 r = rng_.uniform(0, ~u64{0});
      switch (r % 10) {
        case 7:
        case 8:
          loop_.run_until(loop_.now() + pick_ms(r >> 4, {0, 1, 9, 10}));
          log_.push_back(Seen{kCut, loop_.now().ns()});
          cut_since_ = true;
          break;
        case 5:
        case 6:
          schedule(r >> 4);
          break;
        case 9:
          net_.attach(host_addr((r >> 4) % kHosts),
                      &hosts_[(r >> 4) % kHosts]);
          break;
        default:
          send((r >> 4) % kHosts, (r >> 8) % (kHosts + 1));
      }
    }
    loop_.run_all();
    log_.push_back(Seen{kCut, loop_.now().ns()});
    return log_;
  }

  [[nodiscard]] const Net& net() const { return net_; }
  [[nodiscard]] const EventLoop& loop() const { return loop_; }
  [[nodiscard]] const Coverage& coverage() const { return coverage_; }

 private:
  struct Host : PacketSink {
    Script* script = nullptr;
    std::size_t index = 0;
    void deliver(const net::Ipv4Packet& pkt) override {
      script->on_packet(index, pkt);
    }
  };

  LinkProfile pick_profile() {
    LinkProfile p{.latency = pick_ms(rng_.uniform(0, 2), {0, 1, 10})};
    if (rng_.chance(0.1)) p.jitter = Duration::millis(2);
    if (rng_.chance(0.1)) p.loss = 0.25;
    return p;
  }

  void send(std::size_t from, std::size_t to) {
    auto found = profiles_.find({from, to});
    const LinkProfile& link =
        found == profiles_.end() ? default_ : found->second;
    if (link.jitter == Duration::millis(0) && link.loss == 0.0) {
      const Time at = loop_.now() + link.latency;
      if (prev_at_ == at) {
        if (event_at_prev_) {
          coverage_.split_by_event++;
        } else if (!event_since_) {
          (cut_since_ ? coverage_.joins_across_cut : coverage_.joins)++;
        }
      }
      if (in_delivery_ && link.latency == Duration::millis(0)) {
        coverage_.zero_latency_in_delivery++;
      }
      prev_at_ = at;
    } else {
      prev_at_.reset();
    }
    event_since_ = event_at_prev_ = cut_since_ = false;

    net::Ipv4Packet pkt;
    pkt.src = host_addr(from);
    pkt.dst = host_addr(to);
    pkt.id = static_cast<u16>(next_id_++);
    pkt.payload = {1};
    net_.send(std::move(pkt));
  }

  void schedule(u64 r) {
    const Time at = loop_.now() + pick_ms(r, {0, 1, 10});
    event_since_ = true;
    if (prev_at_ == at) event_at_prev_ = true;
    loop_.schedule_at(at, [this, id = next_id_++] { on_event(id); });
  }

  void on_packet(std::size_t h, const net::Ipv4Packet& pkt) {
    log_.push_back(Seen{pkt.id, loop_.now().ns()});
    in_delivery_ = true;
    react(pkt.id, h);
    in_delivery_ = false;
  }

  void on_event(u32 id) {
    log_.push_back(Seen{id, loop_.now().ns()});
    react(id, mix_seed(seed_, id, 1) % kHosts);
  }

  void react(u32 id, std::size_t h) {
    if (next_id_ >= kMaxIds) return;
    const u64 plan = mix_seed(seed_, id);
    const std::size_t other = (plan >> 8) % (kHosts + 1);
    switch (plan % 16) {
      case 0:
      case 1:
      case 2:
        send(h, other);
        break;
      case 3:
        send(h, other);
        send(h, (plan >> 16) % (kHosts + 1));
        break;
      case 4:
      case 5:
        schedule(plan >> 24);
        break;
      case 6:
        send(h, other);
        schedule(plan >> 24);
        send(h, other);
        break;
      case 7:
        if (other == kHosts) break;
        net_.detach(host_addr(other));
        if (in_delivery_) coverage_.detaches_in_delivery++;
        break;
      case 8:
        if (other < kHosts) net_.attach(host_addr(other), &hosts_[other]);
        break;
      default:
        break;
    }
  }

  /// Packet ids are u16; plans stop acting well below that.
  static constexpr u32 kMaxIds = 30'000;

  u64 seed_;
  Rng rng_;
  EventLoop loop_;
  Net net_;
  std::array<Host, kHosts> hosts_;
  LinkProfile default_;
  std::map<std::pair<std::size_t, std::size_t>, LinkProfile> profiles_;
  u32 next_id_ = 0;
  std::vector<Seen> log_;
  bool in_delivery_ = false;
  // The send just before: its instant, if known, and what came between.
  std::optional<Time> prev_at_;
  bool event_since_ = false;
  bool event_at_prev_ = false;
  bool cut_since_ = false;
  Coverage coverage_;
};

TEST(Network, MatchesPerPacketDeliveryOnRandomStreams) {
  Coverage covered;
  u64 fired_per_packet = 0, fired_trains = 0;
  for (u64 seed = 1; seed <= 24; ++seed) {
    Script<PerPacketNetwork> reference(seed);
    Script<Network> trains(seed);
    const std::vector<Seen> want = reference.run();
    const std::vector<Seen> got = trains.run();
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "seed " << seed << ", observation " << i << ": got id "
          << got[i].id << " at " << got[i].now_ns << " ns, want id "
          << want[i].id << " at " << want[i].now_ns << " ns";
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(trains.net().packets_sent(), reference.net().packets_sent())
        << "seed " << seed;
    EXPECT_EQ(trains.net().packets_delivered(),
              reference.net().packets_delivered())
        << "seed " << seed;
    covered += reference.coverage();
    fired_per_packet += reference.loop().stats().fired;
    fired_trains += trains.loop().stats().fired;
  }
  // The scripts must cover what they are for, and trains must merge.
  EXPECT_GE(covered.joins, 1000);
  EXPECT_GE(covered.joins_across_cut, 100);
  EXPECT_GE(covered.split_by_event, 200);
  EXPECT_GE(covered.zero_latency_in_delivery, 300);
  EXPECT_GE(covered.detaches_in_delivery, 100);
  EXPECT_LT(fired_trains, fired_per_packet);
}

}  // namespace
}  // namespace dnstime::sim
