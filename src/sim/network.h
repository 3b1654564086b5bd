// Simulated IPv4 internet.
//
// The Network connects NetStacks (one per simulated host) through links
// with configurable one-way latency, jitter and loss. Delivery is by
// destination address only — the network does not validate source
// addresses, which is exactly the property that makes off-path spoofing
// attacks (forged ICMP errors, spoofed NTP mode-3 floods, injected DNS
// fragments) possible on the real Internet and in this simulator.
//
// Off-path threat model: an attacker host can *send* arbitrary raw packets
// but only *receives* traffic addressed to one of its own addresses. There
// is no promiscuous mode.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/ipv4.h"
#include "sim/event_loop.h"

namespace dnstime::sim {

/// Per-destination-pair link characteristics.
struct LinkProfile {
  Duration latency = Duration::millis(10);
  Duration jitter = Duration::millis(0);  ///< uniform extra delay in [0, jitter]
  double loss = 0.0;                      ///< independent per-packet loss prob.
};

/// Receives packets addressed to a registered address. NetStack implements
/// this; tests can register lightweight observers directly.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(const net::Ipv4Packet& pkt) = 0;
};

class Network {
 public:
  Network(EventLoop& loop, Rng rng) : loop_(loop), rng_(std::move(rng)) {}

  void attach(Ipv4Addr addr, PacketSink* sink) { sinks_[addr] = sink; }
  void detach(Ipv4Addr addr) { sinks_.erase(addr); }

  /// Default characteristics for links without an explicit profile.
  void set_default_profile(LinkProfile p) { default_profile_ = p; }
  /// Override the path src->dst (directional).
  void set_profile(Ipv4Addr src, Ipv4Addr dst, LinkProfile p) {
    profiles_[key(src, dst)] = p;
  }

  /// Inject a packet into the network. `pkt.src` is taken at face value —
  /// spoofing is permitted by design. Packets to unknown destinations are
  /// silently dropped (like the real Internet, no ICMP host-unreachable is
  /// guaranteed). Loss and jitter are drawn per packet, in send order. A
  /// packet that lands on the open train's instant, with no event
  /// scheduled since that train's, joins the train; any other opens a new
  /// train behind one loop event. The rvalue overload moves the payload
  /// into the train — the hot path for senders that are done with the
  /// packet.
  void send(net::Ipv4Packet&& pkt);
  void send(const net::Ipv4Packet& pkt) { send(net::Ipv4Packet{pkt}); }

  /// Total packets accepted into the network (pre-loss); used by tests and
  /// by the attack-volume accounting in the benches.
  [[nodiscard]] u64 packets_sent() const { return packets_sent_; }
  [[nodiscard]] u64 packets_delivered() const { return packets_delivered_; }

  [[nodiscard]] EventLoop& loop() { return loop_; }

 private:
  static u64 key(Ipv4Addr a, Ipv4Addr b) {
    return (u64{a.value()} << 32) | b.value();
  }
  [[nodiscard]] const LinkProfile& profile_for(Ipv4Addr src,
                                               Ipv4Addr dst) const {
    auto it = profiles_.find(key(src, dst));
    return it == profiles_.end() ? default_profile_ : it->second;
  }

  static constexpr u32 kNoTrain = std::numeric_limits<u32>::max();

  void deliver_train(u32 train);

  EventLoop& loop_;
  Rng rng_;
  LinkProfile default_profile_;
  std::unordered_map<Ipv4Addr, PacketSink*> sinks_;
  std::unordered_map<u64, LinkProfile> profiles_;
  /// Trains: the packets one delivery event carries, in send order. The
  /// vectors are recycled through `free_trains_`, so the steady state
  /// allocates nothing.
  std::vector<std::vector<net::Ipv4Packet>> trains_;
  std::vector<u32> free_trains_;
  /// The open train, its instant, and the loop's next seq right after its
  /// event was scheduled. A packet for that instant would take exactly
  /// that seq, and so pop right after the train's last packet.
  u32 open_ = kNoTrain;
  Time open_at_;
  u64 open_next_seq_ = 0;
  u64 packets_sent_ = 0;
  u64 packets_delivered_ = 0;
};

}  // namespace dnstime::sim
