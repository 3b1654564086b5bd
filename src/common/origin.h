// Packet provenance stamp: which simulated module emitted a buffer, when
// (sim-time), and under which identity (legitimate vs spoofed).
//
// Origin lives in the common layer because PacketBuf carries one; the
// flight recorder that assigns sequence numbers and interprets stamps is
// the obs layer (src/obs/provenance.h).  A stamp is a small POD copied
// alongside the buffer's block/data/len triple, so provenance survives
// refcounted slicing, copy-on-write, fragmentation and reassembly for
// free once the buffer paths propagate it.
//
// Determinism contract: a stamp is a pure function of simulation state —
// module tag, sim-time nanoseconds, and a sequence number drawn from a
// per-trial RNG stream derived from the trial seed.  Never memory
// addresses, never wall-clock time.  Identical (scenario, seed) trials
// produce identical stamps at any thread count.
#pragma once

#include "common/types.h"

namespace dnstime {

/// The simulated module a packet was emitted by.  Tags are set per
/// NetStack (net::StackConfig::origin_module); kUnknown is the default for
/// stacks built outside scenario::World (unit tests, benches).
enum class OriginModule : u8 {
  kUnknown = 0,
  kResolver,     ///< the victim's recursive resolver
  kNameserver,   ///< the legitimate pool nameserver
  kPoolNtp,      ///< a legitimate pool NTP server
  kVictim,       ///< the victim NTP client host
  kAttacker,     ///< the off-path attacker's raw-injection stack
  kAttackerNs,   ///< the attacker-controlled nameserver
  kAttackerNtp,  ///< an attacker-controlled NTP server
};

[[nodiscard]] constexpr const char* to_string(OriginModule m) {
  switch (m) {
    case OriginModule::kUnknown: return "unknown";
    case OriginModule::kResolver: return "resolver";
    case OriginModule::kNameserver: return "nameserver";
    case OriginModule::kPoolNtp: return "pool-ntp";
    case OriginModule::kVictim: return "victim";
    case OriginModule::kAttacker: return "attacker";
    case OriginModule::kAttackerNs: return "attacker-ns";
    case OriginModule::kAttackerNtp: return "attacker-ntp";
  }
  return "?";
}

/// Provenance stamp carried by every PacketBuf.
struct Origin {
  /// The packet was injected with a forged source (NetStack::send_raw).
  static constexpr u8 kSpoofed = u8{1} << 0;
  /// The payload was assembled from IP fragments (ReassemblyCache); the
  /// rest of the stamp is the dominant fragment's (spoofed wins).
  static constexpr u8 kReassembled = u8{1} << 1;

  i64 ts_ns = 0;  ///< sim-time at stamping (EventLoop nanoseconds)
  u32 seq = 0;    ///< id from the trial's provenance RNG stream (0 = unstamped)
  OriginModule module = OriginModule::kUnknown;
  u8 flags = 0;

  [[nodiscard]] constexpr bool spoofed() const {
    return (flags & kSpoofed) != 0;
  }
  [[nodiscard]] constexpr bool reassembled() const {
    return (flags & kReassembled) != 0;
  }

  friend constexpr bool operator==(const Origin&, const Origin&) = default;
};

}  // namespace dnstime
