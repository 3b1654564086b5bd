#include "obs/trace.h"

#include "obs/json_util.h"

namespace dnstime::obs {
namespace {

thread_local TraceRecorder* tls_trace = nullptr;

}  // namespace

TraceRecorder* current_trace() { return tls_trace; }

ScopedTrace::ScopedTrace(TraceRecorder* recorder) : previous_(tls_trace) {
  tls_trace = recorder;
}

ScopedTrace::~ScopedTrace() { tls_trace = previous_; }

void TraceRecorder::set_meta(std::string scenario, u64 seed, u32 trial) {
  scenario_ = std::move(scenario);
  seed_ = seed;
  trial_ = trial;
  has_meta_ = true;
}

void TraceRecorder::push(i64 ts_ns, const char* cat, const char* name,
                         Phase phase, u64 value, bool has_value) {
  if (events_.size() >= kMaxEvents) {
    dropped_++;
    return;
  }
  if (events_.empty()) events_.reserve(1024);
  events_.push_back(Event{cat, name, ts_ns, value, phase, has_value});
}

std::string TraceRecorder::to_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  if (has_meta_) {
    out += "\"scenario\":\"";
    append_escaped(out, scenario_);
    out += "\",\"seed\":" + std::to_string(seed_);
    out += ",\"trial\":" + std::to_string(trial_);
    out += ",";
  }
  out += "\"clock\":\"sim\",\"dropped_events\":" + std::to_string(dropped_);
  out += "},\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_escaped(out, e.cat);
    out += "\",\"ph\":\"";
    switch (e.phase) {
      case Phase::kBegin:
        out += 'B';
        break;
      case Phase::kEnd:
        out += 'E';
        break;
      case Phase::kInstant:
        out += 'i';
        break;
    }
    out += "\",\"ts\":";
    append_ts(out, e.ts_ns);
    out += ",\"pid\":1,\"tid\":1";
    if (e.phase == Phase::kInstant) out += ",\"s\":\"t\"";
    if (e.has_value) out += ",\"args\":{\"value\":" + std::to_string(e.value) + "}";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace dnstime::obs
