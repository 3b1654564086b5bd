// In-memory host-time spans for the benchmark's traced run.
//
// A span is (name, start, end, parent, trial id) on std::chrono::steady_clock,
// in nanoseconds since the log was created. Spans are recorded only around
// the public calls the benchmark itself makes (CampaignRunner::run,
// run_trial, World and ClientPopulation construction, store::read_report);
// nothing inside the simulator is instrumented. The log is written out once,
// when the benchmark ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index into SpanLog::spans(), -1 = top level
  std::int64_t trial = -1;  ///< flattened trial index, -1 = not per-trial

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] std::int64_t at_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return at_ns(Clock::now()); }

  /// Opens a span ending at close(); returns its index.
  int open(std::string name, int parent = -1, std::int64_t trial = -1) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, trial});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Records an already-finished span (e.g. one derived from completion
  /// times reported by a callback).
  void add(Span span) { spans_.push_back(std::move(span)); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the union of its children's intervals.
  /// Children of a multi-threaded campaign overlap, so they are merged as
  /// intervals rather than summed.
  [[nodiscard]] std::int64_t self_ns(int index) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& s : spans_) {
      if (s.parent == index) kids.emplace_back(s.start_ns, s.end_ns);
    }
    std::sort(kids.begin(), kids.end());
    const Span& me = spans_[static_cast<std::size_t>(index)];
    std::int64_t covered = 0;
    std::int64_t cursor = me.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, me.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    return me.duration_ns() - covered;
  }

  /// Durations (ns) of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ns(
      const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()));
    }
    return out;
  }

  /// Summed duration of the top-level spans: what the spans account for of
  /// the traced wall time. Top-level spans run one after another on the
  /// benchmark's thread, so their durations add.
  [[nodiscard]] std::int64_t top_level_ns() const {
    std::int64_t sum = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0) sum += s.duration_ns();
    }
    return sum;
  }

  /// `[{"name":..,"start_ns":..,"end_ns":..,"self_ns":..,"parent":..,
  /// "trial":..},...]`.
  [[nodiscard]] std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":\"" + s.name + "\",\"start_ns\":" +
             std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) +
             ",\"self_ns\":" + std::to_string(self_ns(static_cast<int>(i))) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"trial\":" + std::to_string(s.trial) + "}";
    }
    out += "]";
    return out;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
