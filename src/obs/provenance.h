// Failure flight recorder: an always-on bounded ring of provenance events
// for the current trial, dumped as a deterministic "attack narrative"
// timeline when a trial errors, times out, or matches a --dump-on
// predicate.
//
// The recorder answers the question PR 6's counters cannot: not *how
// much* happened but *why this trial* failed — which spoofed fragment was
// reassembled, which cache entry it poisoned, which client adopted the
// poisoned answer, and where in that causal chain the attack broke.
//
// Three pieces:
//  * Origin stamps (common/origin.h).  stamp() hands out stamps whose
//    sequence numbers are drawn from a provenance RNG stream derived from
//    the trial seed — deterministic labels that never encode addresses or
//    wall time.  The stamped buffer paths (PacketBuf copy/slice/COW,
//    ByteWriter::grow, fragmentation, reassembly) carry them for free.
//  * A fixed-capacity ring (kRingCapacity events, no allocation after the
//    first record) holding the most recent chain events.  Long trials
//    overwrite the oldest events; the overwritten count is reported.
//  * Per-stage chain points that survive ring overwrite: the first
//    occurrence and total count of each causal stage (PMTU reduced →
//    spoofed fragments injected → reassembled with a spoofed part → cache
//    poisoned → poisoned answer served → NTP peer steered → clock
//    shifted), so the narrative can name where the chain broke even when
//    the triggering events scrolled out of the ring hours of sim-time ago.
//
// Hot-path cost mirrors the tracer: every DNSTIME_PROV_* site is one
// thread_local load + branch when no recorder is installed, and compiles
// out entirely under DNSTIME_OBS=0.  A trial runs on exactly one worker
// thread and only that thread's recorder is installed, so recording takes
// no locks and the dump is byte-identical at any thread count.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "common/origin.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/counters.h"  // for the DNSTIME_OBS default

namespace dnstime::obs {

/// Event kinds recorded into the ring.  The first kChainStageCount kinds
/// after kPhase map 1:1 onto causal chain stages (in attack order).
enum class ProvKind : u8 {
  kPhase = 0,          ///< trial phase marker (detail = phase name)
  kPmtuReduced,        ///< victim stack accepted an ICMP frag-needed
  kSpoofedInject,      ///< attacker planted a spoofed fragment (send_raw)
  kReasmSpoofed,       ///< reassembly completed using a spoofed part
  kCachePoisoned,      ///< resolver cached an rrset from a spoofed payload
  kPoisonedServed,     ///< resolver answered a client from a tainted entry
  kPeerSteered,        ///< an NTP client adopted/selected a tainted server
  kReasmComplete,      ///< reassembly completed (legitimate parts only)
  kCacheInsert,        ///< resolver cached a legitimate rrset (context)
  kPeerAdopted,        ///< an NTP client adopted a legitimate server
  kPeerSelected,       ///< ntpd changed its system peer (legitimate)
  kError,              ///< the trial raised an error (detail = message)
};

[[nodiscard]] const char* to_string(ProvKind k);

/// Causal chain stages, in attack order.  Stages 0..5 are counted from
/// recorded events; kClockShifted is decided by the trial result at dump
/// time (success means the time shift landed).
enum class ChainStage : u8 {
  kPmtuReduced = 0,
  kSpoofedInject,
  kReasmSpoofed,
  kCachePoisoned,
  kPoisonedServed,
  kPeerSteered,
  kClockShifted,
};
inline constexpr std::size_t kChainStageCount = 7;

[[nodiscard]] const char* to_string(ChainStage s);

/// Salt mixed with the trial seed to derive the provenance stream —
/// a fixed constant so stamps never perturb the trial's own Rng draws.
inline constexpr u64 kProvStreamSalt = 0x70726f76656e616eULL;  // "provenan"

/// Records one trial's recent provenance events plus chain-stage
/// summaries.  Construction is cheap (the ring allocates lazily); the
/// campaign runner installs one per trial.
class FlightRecorder {
 public:
  static constexpr std::size_t kRingCapacity = 4096;
  static constexpr std::size_t kDetailCapacity = 24;

  /// Fixed-size ring slot.  `detail` is a truncated NUL-padded label
  /// (cache key, phase name, error prefix) — no allocation per event.
  struct Event {
    i64 ts_ns = 0;
    u64 a = 0;        ///< kind-specific (mtu, ipid, bytes, addr, ...)
    u64 b = 0;        ///< kind-specific (addr, offset units, parts, ...)
    u32 seq = 0;      ///< ordinal of this event within the trial (1-based)
    u32 ref_seq = 0;  ///< Origin::seq of the packet involved (0 = none)
    ProvKind kind = ProvKind::kPhase;
    OriginModule module = OriginModule::kUnknown;
    u8 flags = 0;     ///< Origin flag bits of the packet involved
    char detail[kDetailCapacity] = {};
  };

  /// First occurrence + total count per chain stage; survives ring
  /// overwrite so the narrative keeps the chain even for 6-hour trials.
  struct ChainPoint {
    u64 count = 0;
    i64 first_ts_ns = 0;
    u32 first_seq = 0;      ///< event seq of the first occurrence
    u32 first_ref_seq = 0;  ///< packet seq of the first occurrence
    char detail[kDetailCapacity] = {};
  };

  /// Trial outcome supplied by the caller at dump time (the recorder
  /// never sees the TrialResult type — obs must not depend on campaign).
  struct DumpContext {
    bool has_result = false;
    bool success = false;
    double duration_s = 0.0;
    double clock_shift_s = 0.0;
    std::string error;
  };

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Campaign context for the dump metadata; also seeds the provenance
  /// stream (mix_seed(trial_seed, kProvStreamSalt)) that stamp() draws
  /// sequence numbers from.
  void set_meta(std::string scenario, u64 campaign_seed, u32 trial,
                u64 trial_seed);

  /// Mint an origin stamp for a packet emitted now.  The sequence number
  /// is the next draw from the trial's provenance stream — a xorshift64*
  /// generator rather than the sim's Rng, because this runs once per
  /// emitted packet and a distribution draw's divide would blow the <=2%
  /// overhead budget on the flood path.
  [[nodiscard]] Origin stamp(i64 ts_ns, OriginModule module, u8 flags = 0) {
    u64 s = prov_state_;
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    prov_state_ = s;
    Origin o;
    o.ts_ns = ts_ns;
    o.seq = static_cast<u32>((s * 0x2545F4914F6CDD1Dull) >> 32);
    if (o.seq == 0) o.seq = 1;  // 0 means unstamped
    o.module = module;
    o.flags = flags;
    stamps_++;
    return o;
  }

  /// Addresses the scenario declared attacker-controlled; peer events
  /// against one of them count as the chain's "peer steered" stage.
  void add_tainted(u32 addr);
  [[nodiscard]] bool is_tainted(u32 addr) const;

  // --- recording sites (called through the DNSTIME_PROV_EVENT macro) ---
  void phase(i64 ts_ns, const char* name);
  void pmtu_reduced(i64 ts_ns, OriginModule module, u16 mtu, u32 dst_addr);
  void spoofed_inject(i64 ts_ns, const Origin& o, u16 ipid, u16 offset_units);
  void reassembled(i64 ts_ns, const Origin& merged, u64 bytes, u64 parts);
  void cache_insert(i64 ts_ns, const Origin& o, const char* name);
  void poisoned_served(i64 ts_ns, const Origin& entry_origin,
                       const char* name);
  void peer_adopted(i64 ts_ns, OriginModule module, u32 addr);
  void peer_selected(i64 ts_ns, OriginModule module, u32 addr);
  void error(const std::string& message);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] u64 overwritten() const { return overwritten_; }
  [[nodiscard]] u64 stamps() const { return stamps_; }
  [[nodiscard]] u64 recorded() const { return next_event_seq_; }
  [[nodiscard]] const ChainPoint& chain(ChainStage s) const {
    return chain_[static_cast<std::size_t>(s)];
  }

  /// Deepest chain stage with at least one occurrence (kClockShifted when
  /// `success`), or nullptr when even the first stage never happened.
  [[nodiscard]] const char* chain_reached(bool success) const;
  /// First missing stage after the deepest reached one, or nullptr when
  /// the whole chain completed.
  [[nodiscard]] const char* chain_broke_at(bool success) const;

  /// Events oldest-to-newest (unwinds the ring; dump-time only).
  [[nodiscard]] std::vector<Event> events_in_order() const;

  /// The deterministic attack-narrative JSON: metadata, trial result,
  /// chain summary (stages / reached / broke_at) and the ring's events.
  /// A pure function of recorded sim events + ctx, so a runner dump and a
  /// tools/trial_replay of the same trial are byte-identical (both fill
  /// ctx through campaign::narrative_json).
  [[nodiscard]] std::string to_json(const DumpContext& ctx) const;

 private:
  const Event& record(ProvKind kind, i64 ts_ns, OriginModule module, u8 flags,
                      u32 ref_seq, u64 a, u64 b, const char* detail);
  void note_chain(ChainStage stage, const Event& e);

  std::vector<Event> ring_;  // lazily sized to kRingCapacity
  std::size_t head_ = 0;     // next write position
  std::size_t count_ = 0;    // events currently held (<= kRingCapacity)
  u64 overwritten_ = 0;
  u64 stamps_ = 0;
  u32 next_event_seq_ = 0;
  i64 last_ts_ns_ = 0;
  ChainPoint chain_[kChainStageCount];
  std::vector<u32> tainted_;

  std::string scenario_;
  u64 campaign_seed_ = 0;
  u64 trial_seed_ = 0;
  u32 trial_ = 0;
  bool has_meta_ = false;
  u64 prov_state_ = kProvStreamSalt;  // xorshift64* state; never zero
};

namespace detail {
/// Storage for the per-thread installed recorder.  Lives in the header as
/// an inline variable so current_flight() compiles to a single
/// thread-local load at every macro site instead of an opaque call.
inline thread_local FlightRecorder* tls_flight = nullptr;
}  // namespace detail

/// The calling thread's installed flight recorder, or nullptr.
[[nodiscard]] inline FlightRecorder* current_flight() {
  return detail::tls_flight;
}

/// Installs `recorder` for the current scope, restoring the previous one
/// (usually nullptr) on destruction.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder* recorder);
  ~ScopedFlightRecorder();
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
};

}  // namespace dnstime::obs

#if DNSTIME_OBS

/// Stamp `buf` (a PacketBuf) with a fresh origin if a recorder is
/// installed; a no-op (one thread_local load + branch) otherwise.
#define DNSTIME_PROV_STAMP(buf, ts_ns, module, origin_flags)              \
  do {                                                                    \
    if (::dnstime::obs::FlightRecorder* dnstime_flight_ =                 \
            ::dnstime::obs::current_flight()) {                           \
      (buf).set_origin(                                                   \
          dnstime_flight_->stamp((ts_ns), (module), (origin_flags)));     \
    }                                                                     \
  } while (0)

/// Invoke a FlightRecorder member call (e.g. phase(ts, "attack")) on the
/// installed recorder, if any.  Arguments are not evaluated when no
/// recorder is installed.
#define DNSTIME_PROV_EVENT(member_call)                                   \
  do {                                                                    \
    if (::dnstime::obs::FlightRecorder* dnstime_flight_ =                 \
            ::dnstime::obs::current_flight()) {                           \
      dnstime_flight_->member_call;                                       \
    }                                                                     \
  } while (0)

#else  // !DNSTIME_OBS

#define DNSTIME_PROV_STAMP(buf, ts_ns, module, origin_flags) ((void)0)
#define DNSTIME_PROV_EVENT(member_call) ((void)0)

#endif  // DNSTIME_OBS
