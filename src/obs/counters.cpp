#include "obs/counters.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <mutex>

namespace dnstime::obs {

/// The whole registry; every member is guarded by `mutex`.
struct Registry::Impl {
  std::mutex mutex;
  // Tag -> id. Sorted maps double as the deterministic iteration order of
  // snapshot().
  std::map<std::string, Id, std::less<>> counters;
  std::map<std::string, Id, std::less<>> histograms;
  // Values, indexed by those ids.
  std::vector<u64> counter_values;
  std::vector<HistogramData> histogram_values;
};

namespace {

/// Id of `name`, registering it with a zero value on first use. Caller
/// holds the registry mutex.
template <typename Value>
Registry::Id intern(std::map<std::string, Registry::Id, std::less<>>& ids,
                    std::vector<Value>& values, std::string_view name) {
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  const auto id = static_cast<Registry::Id>(values.size());
  values.emplace_back();
  ids.emplace(std::string(name), id);
  return id;
}

/// Log2 bucket of a sample: floor(log2(v)) for v > 0, bucket 0 for v == 0.
std::size_t bucket_of(u64 v) {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v)) - 1;
}

}  // namespace

Registry& Registry::instance() {
  static Registry* const g = new Registry;
  return *g;
}

Registry::Impl& Registry::impl() {
  static Impl* const g = new Impl;
  return *g;
}

Registry::Id Registry::counter_id(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  return intern(im.counters, im.counter_values, name);
}

Registry::Id Registry::histogram_id(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  return intern(im.histograms, im.histogram_values, name);
}

void Registry::add(Id id, u64 n) {
  if (n == 0) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.counter_values[id] += n;
}

void Registry::record(Id id, u64 value) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  HistogramData& h = im.histogram_values[id];
  h.count += 1;
  h.sum += value;
  h.min = std::min(h.min, value);
  h.max = std::max(h.max, value);
  h.buckets[bucket_of(value)] += 1;
}

Snapshot Registry::snapshot() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  Snapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, id] : im.counters) {
    snap.counters.emplace_back(name, im.counter_values[id]);
  }
  snap.histograms.reserve(im.histograms.size());
  for (const auto& [name, id] : im.histograms) {
    snap.histograms.emplace_back(name, im.histogram_values[id]);
  }
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  std::fill(im.counter_values.begin(), im.counter_values.end(), 0);
  std::fill(im.histogram_values.begin(), im.histogram_values.end(),
            HistogramData{});
}

// ---------------------------------------------------------------------------
// Snapshot rendering

u64 Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramData* Snapshot::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"min\":" + std::to_string(h.count == 0 ? 0 : h.min);
    out += ",\"max\":" + std::to_string(h.max);
    out += ",\"buckets\":{";
    bool first_bucket = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      out += "\"" + std::to_string(b) + "\":" + std::to_string(h.buckets[b]);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

std::string Snapshot::to_table() const {
  std::string out;
  char line[192];
  if (!counters.empty()) {
    out += "  counters\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(line, sizeof line, "    %-40s %16llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
  }
  if (!histograms.empty()) {
    out += "  histograms\n";
    for (const auto& [name, h] : histograms) {
      std::snprintf(line, sizeof line,
                    "    %-40s count=%llu sum=%llu min=%llu max=%llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.sum),
                    static_cast<unsigned long long>(h.count == 0 ? 0 : h.min),
                    static_cast<unsigned long long>(h.max));
      out += line;
    }
  }
  return out;
}

}  // namespace dnstime::obs
