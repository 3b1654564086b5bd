// Process-wide metrics registry: counters and log2-bucket histograms kept
// in one mutex-guarded table.
//
// Design rules (see src/obs/README.md for the full contract):
//  * A macro site resolves its tag to a stable id once (function-local
//    static); every hit then takes the registry mutex and adds into the
//    value slot for that id. Snapshots take the same mutex, so they are
//    always exact.
//  * The lock is cheap because no call site is hot. Every counter and
//    histogram export in src/ runs once per component lifetime, per
//    trial or per worker: the destructors of EventLoop, NetStack,
//    Resolver and ClientPopulation, ShardWriter::close, and the campaign
//    trial wrapper and worker loop. Adding 0 returns before locking.
//  * Counter totals are additive and histogram updates are
//    order-independent, so a snapshot after the workers join is identical
//    at any thread count — metrics for a deterministic campaign are
//    themselves deterministic, except for tags that record wall-clock time
//    (named *_us / *_wall by convention).
//  * DNSTIME_OBS=0 (cmake -DDNSTIME_OBS=OFF) compiles every macro to a
//    no-op; the registry types remain so cold-path callers need no guards.
//
// Hot components do NOT call these macros per event: they keep plain
// member counters and export them once, via DNSTIME_COUNT_ADD, when they
// are destroyed or closed. That keeps the per-packet cost to a plain
// increment and is how the repo's <=2% bench overhead budget is met.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

#ifndef DNSTIME_OBS
#define DNSTIME_OBS 1
#endif

namespace dnstime::obs {

/// Histogram state: count/sum/min/max plus log2 buckets (bucket i holds
/// values whose bit width is i + 1; values 0 and 1 land in bucket 0).
struct HistogramData {
  u64 count = 0;
  u64 sum = 0;
  u64 min = ~u64{0};  ///< meaningful only when count > 0
  u64 max = 0;
  std::array<u64, 64> buckets{};
};

/// Point-in-time copy of the registry, name-sorted so rendering is
/// deterministic.
struct Snapshot {
  std::vector<std::pair<std::string, u64>> counters;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  /// Value of a counter, 0 when absent (test/assertion helper).
  [[nodiscard]] u64 counter(std::string_view name) const;
  /// Histogram by name, nullptr when absent.
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;

  /// `{"counters":{...},"histograms":{...}}` — stable key order (sorted),
  /// buckets rendered sparsely as {"<bit>":count}.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable rendering for table reports.
  [[nodiscard]] std::string to_table() const;
};

/// The process-wide registry. Use through the DNSTIME_COUNT / DNSTIME_HIST
/// macros; direct calls are for cold paths that loop over dynamic tags.
class Registry {
 public:
  using Id = u32;

  /// Leaked singleton: component destructors export into it, and those
  /// may run after static destruction would have torn it down.
  static Registry& instance();

  /// Resolve (registering on first use) a tag. Call once per site and
  /// cache the id. Tags are interned — the same string always maps to the
  /// same id, across threads. A registered tag appears in every snapshot,
  /// with value 0 until something is added to it.
  Id counter_id(std::string_view name);
  Id histogram_id(std::string_view name);

  /// Add `n` to counter `id`; n == 0 returns without locking.
  void add(Id id, u64 n);
  /// Record one sample into histogram `id`.
  void record(Id id, u64 value);

  /// Every registered tag with its current value.
  [[nodiscard]] Snapshot snapshot();

  /// Zero every value; registered tags stay registered. Test helper.
  void reset();

 private:
  struct Impl;

  Registry() = default;
  Impl& impl();
};

}  // namespace dnstime::obs

#if DNSTIME_OBS

/// Bump counter `tag` by 1. `tag` must be a constant expression convertible
/// to std::string_view; the id lookup happens once per call site.
#define DNSTIME_COUNT(tag) DNSTIME_COUNT_ADD(tag, 1)

/// Bump counter `tag` by `n` (the dtor-export form hot components use).
#define DNSTIME_COUNT_ADD(tag, n)                                         \
  do {                                                                    \
    static const ::dnstime::obs::Registry::Id dnstime_obs_id_ =           \
        ::dnstime::obs::Registry::instance().counter_id(tag);             \
    ::dnstime::obs::Registry::instance().add(                             \
        dnstime_obs_id_, static_cast<::dnstime::u64>(n));                 \
  } while (0)

/// Record sample `v` into histogram `tag`.
#define DNSTIME_HIST(tag, v)                                              \
  do {                                                                    \
    static const ::dnstime::obs::Registry::Id dnstime_obs_id_ =           \
        ::dnstime::obs::Registry::instance().histogram_id(tag);           \
    ::dnstime::obs::Registry::instance().record(                          \
        dnstime_obs_id_, static_cast<::dnstime::u64>(v));                 \
  } while (0)

#else  // !DNSTIME_OBS

#define DNSTIME_COUNT(tag) ((void)0)
#define DNSTIME_COUNT_ADD(tag, n) ((void)0)
#define DNSTIME_HIST(tag, v) ((void)0)

#endif  // DNSTIME_OBS
