#include "obs/provenance.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/json_util.h"

namespace dnstime::obs {
namespace {

/// Dotted-quad rendering of a simulated address for event detail labels
/// (simulated topology addresses, never host addresses).
void format_addr(char* out, std::size_t cap, u32 addr) {
  std::snprintf(out, cap, "%u.%u.%u.%u", (addr >> 24) & 0xFF,
                (addr >> 16) & 0xFF, (addr >> 8) & 0xFF, addr & 0xFF);
}

}  // namespace

const char* to_string(ProvKind k) {
  switch (k) {
    case ProvKind::kPhase: return "phase";
    case ProvKind::kPmtuReduced: return "pmtu-reduced";
    case ProvKind::kSpoofedInject: return "spoofed-inject";
    case ProvKind::kReasmSpoofed: return "reassembled-spoofed";
    case ProvKind::kCachePoisoned: return "cache-poisoned";
    case ProvKind::kPoisonedServed: return "poisoned-served";
    case ProvKind::kPeerSteered: return "peer-steered";
    case ProvKind::kReasmComplete: return "reassembled";
    case ProvKind::kCacheInsert: return "cache-insert";
    case ProvKind::kPeerAdopted: return "peer-adopted";
    case ProvKind::kPeerSelected: return "peer-selected";
    case ProvKind::kError: return "error";
  }
  return "?";
}

const char* to_string(ChainStage s) {
  switch (s) {
    case ChainStage::kPmtuReduced: return "pmtu-reduced";
    case ChainStage::kSpoofedInject: return "spoofed-fragments-injected";
    case ChainStage::kReasmSpoofed: return "reassembled-with-spoofed";
    case ChainStage::kCachePoisoned: return "cache-poisoned";
    case ChainStage::kPoisonedServed: return "poisoned-answer-served";
    case ChainStage::kPeerSteered: return "ntp-peer-steered";
    case ChainStage::kClockShifted: return "clock-shifted";
  }
  return "?";
}

ScopedFlightRecorder::ScopedFlightRecorder(FlightRecorder* recorder)
    : previous_(detail::tls_flight) {
  detail::tls_flight = recorder;
}

ScopedFlightRecorder::~ScopedFlightRecorder() {
  detail::tls_flight = previous_;
}

void FlightRecorder::set_meta(std::string scenario, u64 campaign_seed,
                              u32 trial, u64 trial_seed) {
  scenario_ = std::move(scenario);
  campaign_seed_ = campaign_seed;
  trial_ = trial;
  trial_seed_ = trial_seed;
  has_meta_ = true;
  prov_state_ = mix_seed(trial_seed, kProvStreamSalt);
  if (prov_state_ == 0) prov_state_ = kProvStreamSalt;  // xorshift needs != 0
}

void FlightRecorder::add_tainted(u32 addr) {
  if (!is_tainted(addr)) tainted_.push_back(addr);
}

bool FlightRecorder::is_tainted(u32 addr) const {
  return std::find(tainted_.begin(), tainted_.end(), addr) != tainted_.end();
}

const FlightRecorder::Event& FlightRecorder::record(
    ProvKind kind, i64 ts_ns, OriginModule module, u8 flags, u32 ref_seq,
    u64 a, u64 b, const char* detail) {
  if (ring_.empty()) ring_.resize(kRingCapacity);
  Event& e = ring_[head_];
  head_ = (head_ + 1) % kRingCapacity;
  if (count_ == kRingCapacity) {
    overwritten_++;
  } else {
    count_++;
  }
  next_event_seq_++;
  last_ts_ns_ = ts_ns;
  e.ts_ns = ts_ns;
  e.a = a;
  e.b = b;
  e.seq = next_event_seq_;
  e.ref_seq = ref_seq;
  e.kind = kind;
  e.module = module;
  e.flags = flags;
  // Bounded copy-with-truncation by hand: snprintf's format parsing costs
  // ~100ns per call, which the reassembly hot path cannot afford inside
  // the <=2% overhead budget.
  std::memset(e.detail, 0, sizeof e.detail);
  if (detail != nullptr) {
    for (std::size_t n = 0; n + 1 < sizeof e.detail && detail[n] != '\0';
         ++n) {
      e.detail[n] = detail[n];
    }
  }
  return e;
}

void FlightRecorder::note_chain(ChainStage stage, const Event& e) {
  ChainPoint& cp = chain_[static_cast<std::size_t>(stage)];
  cp.count++;
  if (cp.count == 1) {
    cp.first_ts_ns = e.ts_ns;
    cp.first_seq = e.seq;
    cp.first_ref_seq = e.ref_seq;
    std::snprintf(cp.detail, sizeof cp.detail, "%s", e.detail);
  }
}

void FlightRecorder::phase(i64 ts_ns, const char* name) {
  record(ProvKind::kPhase, ts_ns, OriginModule::kUnknown, 0, 0, 0, 0, name);
}

void FlightRecorder::pmtu_reduced(i64 ts_ns, OriginModule module, u16 mtu,
                                  u32 dst_addr) {
  char detail[kDetailCapacity];
  format_addr(detail, sizeof detail, dst_addr);
  note_chain(ChainStage::kPmtuReduced,
             record(ProvKind::kPmtuReduced, ts_ns, module, 0, 0, mtu,
                    dst_addr, detail));
}

void FlightRecorder::spoofed_inject(i64 ts_ns, const Origin& o, u16 ipid,
                                    u16 offset_units) {
  note_chain(ChainStage::kSpoofedInject,
             record(ProvKind::kSpoofedInject, ts_ns, o.module, o.flags, o.seq,
                    ipid, offset_units, ""));
}

void FlightRecorder::reassembled(i64 ts_ns, const Origin& merged, u64 bytes,
                                 u64 parts) {
  const bool spoofed = merged.spoofed();
  const Event& e =
      record(spoofed ? ProvKind::kReasmSpoofed : ProvKind::kReasmComplete,
             ts_ns, merged.module, merged.flags, merged.seq, bytes, parts, "");
  if (spoofed) note_chain(ChainStage::kReasmSpoofed, e);
}

void FlightRecorder::cache_insert(i64 ts_ns, const Origin& o,
                                  const char* name) {
  const bool spoofed = o.spoofed();
  const Event& e =
      record(spoofed ? ProvKind::kCachePoisoned : ProvKind::kCacheInsert,
             ts_ns, o.module, o.flags, o.seq, 0, 0, name);
  if (spoofed) note_chain(ChainStage::kCachePoisoned, e);
}

void FlightRecorder::poisoned_served(i64 ts_ns, const Origin& entry_origin,
                                     const char* name) {
  note_chain(ChainStage::kPoisonedServed,
             record(ProvKind::kPoisonedServed, ts_ns, entry_origin.module,
                    entry_origin.flags, entry_origin.seq, 0, 0, name));
}

void FlightRecorder::peer_adopted(i64 ts_ns, OriginModule module, u32 addr) {
  const bool tainted = is_tainted(addr);
  char detail[kDetailCapacity];
  format_addr(detail, sizeof detail, addr);
  const Event& e = record(ProvKind::kPeerAdopted, ts_ns, module,
                          tainted ? Origin::kSpoofed : u8{0}, 0, addr, 0,
                          detail);
  if (tainted) note_chain(ChainStage::kPeerSteered, e);
}

void FlightRecorder::peer_selected(i64 ts_ns, OriginModule module, u32 addr) {
  const bool tainted = is_tainted(addr);
  char detail[kDetailCapacity];
  format_addr(detail, sizeof detail, addr);
  const Event& e = record(ProvKind::kPeerSelected, ts_ns, module,
                          tainted ? Origin::kSpoofed : u8{0}, 0, addr, 0,
                          detail);
  if (tainted) note_chain(ChainStage::kPeerSteered, e);
}

void FlightRecorder::error(const std::string& message) {
  record(ProvKind::kError, last_ts_ns_, OriginModule::kUnknown, 0, 0, 0, 0,
         message.c_str());
}

namespace {

/// Count for stage `i`, treating the final clock-shifted stage as decided
/// by the trial outcome.
u64 stage_count(const FlightRecorder& fr, std::size_t i, bool success) {
  if (static_cast<ChainStage>(i) == ChainStage::kClockShifted) {
    return success ? 1 : 0;
  }
  return fr.chain(static_cast<ChainStage>(i)).count;
}

/// Longest contiguous prefix of satisfied stages; -1 when even the first
/// stage never happened.
int reached_index(const FlightRecorder& fr, bool success) {
  int reached = -1;
  for (std::size_t i = 0; i < kChainStageCount; ++i) {
    if (stage_count(fr, i, success) == 0) break;
    reached = static_cast<int>(i);
  }
  return reached;
}

}  // namespace

const char* FlightRecorder::chain_reached(bool success) const {
  const int r = reached_index(*this, success);
  if (r < 0) return nullptr;
  return obs::to_string(static_cast<ChainStage>(r));
}

const char* FlightRecorder::chain_broke_at(bool success) const {
  const int r = reached_index(*this, success);
  const std::size_t next = static_cast<std::size_t>(r + 1);
  if (next >= kChainStageCount) return nullptr;
  return obs::to_string(static_cast<ChainStage>(next));
}

std::vector<FlightRecorder::Event> FlightRecorder::events_in_order() const {
  std::vector<Event> out;
  out.reserve(count_);
  const std::size_t start =
      count_ == kRingCapacity ? head_ : std::size_t{0};
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % kRingCapacity]);
  }
  return out;
}

std::string FlightRecorder::to_json(const DumpContext& ctx) const {
  std::string out = "{\"narrative\":{";
  if (has_meta_) {
    out += "\"scenario\":\"";
    append_escaped(out, scenario_);
    out += "\",\"campaign_seed\":" + std::to_string(campaign_seed_);
    out += ",\"trial\":" + std::to_string(trial_);
    out += ",\"trial_seed\":" + std::to_string(trial_seed_);
    out += ",";
  }
  out += "\"result\":";
  if (ctx.has_result) {
    out += "{\"success\":";
    out += ctx.success ? "true" : "false";
    out += ",\"duration_s\":";
    append_double(out, ctx.duration_s);
    out += ",\"clock_shift_s\":";
    append_double(out, ctx.clock_shift_s);
    out += ",\"error\":\"";
    append_escaped(out, ctx.error);
    out += "\"}";
  } else {
    out += "null";
  }

  const bool success = ctx.has_result && ctx.success;
  out += ",\"chain\":{\"reached\":";
  if (const char* r = chain_reached(success)) {
    out += '"';
    out += r;
    out += '"';
  } else {
    out += "null";
  }
  out += ",\"broke_at\":";
  if (const char* b = chain_broke_at(success)) {
    out += '"';
    out += b;
    out += '"';
  } else {
    out += "null";
  }
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < kChainStageCount; ++i) {
    if (i != 0) out += ',';
    const auto stage = static_cast<ChainStage>(i);
    const u64 n = stage_count(*this, i, success);
    out += "{\"stage\":\"";
    out += obs::to_string(stage);
    out += "\",\"count\":" + std::to_string(n);
    if (stage != ChainStage::kClockShifted && n > 0) {
      const ChainPoint& cp = chain(stage);
      out += ",\"first_ts\":";
      append_ts(out, cp.first_ts_ns);
      out += ",\"first_event\":" + std::to_string(cp.first_seq);
      if (cp.first_ref_seq != 0) {
        out += ",\"first_packet\":" + std::to_string(cp.first_ref_seq);
      }
      if (cp.detail[0] != '\0') {
        out += ",\"detail\":\"";
        append_escaped(out, cp.detail);
        out += '"';
      }
    }
    out += '}';
  }
  out += "]}";

  out += ",\"ring\":{\"capacity\":" + std::to_string(kRingCapacity);
  out += ",\"recorded\":" + std::to_string(next_event_seq_);
  out += ",\"held\":" + std::to_string(count_);
  out += ",\"overwritten\":" + std::to_string(overwritten_);
  out += ",\"stamps\":" + std::to_string(stamps_) + "}";

  out += ",\"events\":[";
  const std::vector<Event> events = events_in_order();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i != 0) out += ',';
    out += "{\"n\":" + std::to_string(e.seq);
    out += ",\"ts\":";
    append_ts(out, e.ts_ns);
    out += ",\"kind\":\"";
    out += obs::to_string(e.kind);
    out += "\",\"module\":\"";
    out += dnstime::to_string(e.module);
    out += '"';
    if ((e.flags & Origin::kSpoofed) != 0) out += ",\"spoofed\":true";
    if ((e.flags & Origin::kReassembled) != 0) out += ",\"reassembled\":true";
    if (e.ref_seq != 0) out += ",\"packet\":" + std::to_string(e.ref_seq);
    if (e.a != 0) out += ",\"a\":" + std::to_string(e.a);
    if (e.b != 0) out += ",\"b\":" + std::to_string(e.b);
    if (e.detail[0] != '\0') {
      out += ",\"detail\":\"";
      append_escaped(out, e.detail);
      out += '"';
    }
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace dnstime::obs
