// Per-host network stack: UDP sockets, IPID assignment, path-MTU table
// (PMTUD), fragmentation on send, reassembly on receive, and ICMP handling.
//
// Every protocol-relevant OS behaviour the paper depends on is a Config
// knob here:
//  * IPID assignment mode — globally sequential counters are what makes
//    §III-2 IPID prediction work;
//  * PMTUD acceptance of (spoofable) ICMP frag-needed and the minimum MTU a
//    stack will honour — the per-nameserver "minimum fragment size" of
//    Fig. 5 / §VII-B;
//  * fragment acceptance policy — the resolver-side attack surface measured
//    in Table V and §VIII-A2 (e.g. Google's resolvers filter small frags).
// The reassembly cache runs Linux's policy (net/reassembly.h: 30 s timeout,
// 64 datagrams per endpoint pair) and unprobed paths use the Ethernet MTU.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>

#include "common/rng.h"
#include "net/fragmentation.h"
#include "net/icmp.h"
#include "net/reassembly.h"
#include "net/udp.h"
#include "sim/network.h"

namespace dnstime::net {

enum class IpidMode {
  kGlobalSequential,  ///< one counter for all destinations (predictable)
  kRandom,            ///< random per packet (prediction infeasible)
};

struct StackConfig {
  IpidMode ipid_mode = IpidMode::kGlobalSequential;
  /// Accept ICMP frag-needed and register the advertised path MTU.
  bool honor_icmp_frag_needed = true;
  /// Lowest MTU this stack will register from an ICMP error; the effective
  /// minimum fragment size a remote attacker can induce.
  u16 min_pmtu = kMinimumMtu;
  /// Accept and reassemble incoming fragments at all.
  bool accept_fragments = true;
  /// Drop fragmented datagrams whose first fragment is smaller than this
  /// (models resolvers that filter "tiny" fragments).
  u16 min_first_fragment_size = 0;
  /// Provenance tag stamped onto every payload this stack emits (see
  /// common/origin.h); scenario::World sets one per simulated role.
  OriginModule origin_module = OriginModule::kUnknown;
};

/// (address, port) source of a received datagram.
struct UdpEndpoint {
  Ipv4Addr addr;
  u16 port = 0;
  friend auto operator<=>(const UdpEndpoint&, const UdpEndpoint&) = default;
};

class NetStack : public sim::PacketSink {
 public:
  /// `payload` is the delivered (possibly reassembled) datagram's own
  /// PacketBuf: a slice of the packet's block, passed without a copy. A
  /// handler that keeps the bytes copies the PacketBuf (one refcount bump,
  /// no new block) — see src/net/README.md for the ownership rules.
  using UdpHandler = std::function<void(
      const UdpEndpoint& from, u16 local_port, const PacketBuf& payload)>;

  NetStack(sim::Network& net, Ipv4Addr addr, StackConfig config, Rng rng);
  ~NetStack() override;

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  [[nodiscard]] Ipv4Addr addr() const { return addr_; }
  [[nodiscard]] sim::Time now() const { return net_.loop().now(); }
  [[nodiscard]] sim::EventLoop& loop() { return net_.loop(); }
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const StackConfig& config() const { return config_; }

  void bind_udp(u16 port, UdpHandler handler);
  void unbind_udp(u16 port);
  /// Pick an unused ephemeral port uniformly at random (the resolver's
  /// source-port randomisation defence draws from here).
  [[nodiscard]] u16 ephemeral_port();

  /// Send a UDP datagram from this host, fragmenting per the path MTU
  /// registered for `dst`. The UDP header is prepended into the payload
  /// buffer's headroom (zero-copy for ByteWriter-built payloads; a `Bytes`
  /// argument converts with one copy into a new block).
  void send_udp(Ipv4Addr dst, u16 src_port, u16 dst_port, PacketBuf payload);

  /// Send a UDP datagram deliberately fragmented to `mtu`, regardless of
  /// the path MTU. Models the study nameserver of §VIII-B1 which "always
  /// responds to DNS requests with fragmented packets, even if the size is
  /// way below the maximum MTU of the path".
  void send_udp_fragmented(Ipv4Addr dst, u16 src_port, u16 dst_port,
                           PacketBuf payload, u16 mtu);

  /// Attacker API: inject a fully attacker-controlled packet (any source
  /// address, any fragment fields). This models raw-socket spoofing.
  void send_raw(Ipv4Packet pkt);

  /// sim::PacketSink
  void deliver(const Ipv4Packet& pkt) override;

  /// Raw-packet observation for traffic addressed to this host (the
  /// attacker reads response IPIDs through this; §III-2 IPID prediction).
  /// Returns a token for remove_packet_tap.
  using PacketTap = std::function<void(const Ipv4Packet&)>;
  u64 add_packet_tap(PacketTap tap);
  void remove_packet_tap(u64 token);

  [[nodiscard]] u16 path_mtu(Ipv4Addr dst) const;
  [[nodiscard]] u16 current_ipid() const { return ipid_global_; }
  /// Observed counters, used by tests and measurement tooling. Kept as
  /// plain members on the packet hot path; ~NetStack folds them (plus the
  /// reassembly-cache counters) into the obs registry under net.*.
  [[nodiscard]] u64 udp_rx() const { return udp_rx_; }
  [[nodiscard]] u64 fragments_rx() const { return fragments_rx_; }
  [[nodiscard]] u64 fragments_dropped() const { return fragments_dropped_; }
  [[nodiscard]] u64 packets_tx() const { return packets_tx_; }

 private:
  /// The send path's framing step: IPID draw, UDP encode, provenance stamp.
  [[nodiscard]] Ipv4Packet frame_udp(Ipv4Addr dst, u16 src_port, u16 dst_port,
                                     PacketBuf payload);
  void send_fragments(const Ipv4Packet& pkt, u16 mtu);
  void handle_transport(const Ipv4Packet& pkt);
  void handle_icmp(const Ipv4Packet& pkt);
  [[nodiscard]] u16 next_ipid();
  void schedule_expiry();

  sim::Network& net_;
  Ipv4Addr addr_;
  StackConfig config_;
  Rng rng_;
  ReassemblyCache reasm_;
  std::unordered_map<u16, UdpHandler> udp_handlers_;
  std::map<u64, PacketTap> taps_;  ///< by token: fire in registration order
  u64 next_tap_token_ = 1;
  std::unordered_map<Ipv4Addr, u16> path_mtu_;
  u16 ipid_global_;
  u64 udp_rx_ = 0;
  u64 udp_bad_csum_ = 0;
  u64 fragments_rx_ = 0;
  u64 fragments_dropped_ = 0;
  u64 packets_tx_ = 0;
  u64 fragments_tx_ = 0;
  u64 datagrams_fragmented_ = 0;
  sim::EventHandle expiry_event_;
};

}  // namespace dnstime::net
